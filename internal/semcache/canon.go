// Package semcache makes repeated voice queries near-free: a canonical
// key equates semantically equivalent OLAP queries (scope order and
// spoken synonyms don't matter, structure does) and a bounded LRU
// memoizes finished speeches under singleflight. This is the structural
// analogue of LLM-based semantic OLAP caching: internal/nlq already
// resolves synonyms and hierarchies, so canonicalization is a sort plus a
// synonym map instead of a model call.
//
// Soundness contract (see DESIGN.md): callers must vocalize the
// Normalize'd query, never the raw one. Then key equality implies an
// identical planner input, and with the deterministic planner
// configuration the web layer uses (fixed seed, simulated clock) an
// identical spoken answer — which is what lets the cache replay speech
// bit-for-bit.
package semcache

import (
	"sort"
	"strconv"
	"strings"

	"repro/internal/dimension"
	"repro/internal/nlq"
	"repro/internal/olap"
)

// Normalize returns q with group-by entries and filters sorted by their
// hierarchies' canonical names. The input is not mutated. Two queries that
// differ only in the order dimensions were mentioned normalize to the same
// value, so vocalizing the normalized query makes "by region and season"
// and "by season and region" produce the same speech.
func Normalize(q olap.Query) olap.Query {
	n := q
	n.GroupBy = append([]olap.GroupBy(nil), q.GroupBy...)
	sort.SliceStable(n.GroupBy, func(i, j int) bool {
		return canonicalHierarchy(n.GroupBy[i].Hierarchy) < canonicalHierarchy(n.GroupBy[j].Hierarchy)
	})
	n.Filters = append([]*dimension.Member(nil), q.Filters...)
	sort.SliceStable(n.Filters, func(i, j int) bool {
		return canonicalHierarchy(n.Filters[i].Hierarchy()) < canonicalHierarchy(n.Filters[j].Hierarchy())
	})
	return n
}

// Key renders q's canonical form as a deterministic byte string: two
// queries get equal keys iff they normalize to the same aggregate
// function, measure, sorted scope set, and sorted filter set. Field and
// path separators are control bytes no spoken name contains, so distinct
// structures cannot collide by concatenation.
func Key(q olap.Query) string {
	n := Normalize(q)
	var b strings.Builder
	b.WriteString("f=")
	b.WriteString(n.Fct.String())
	// The measure column only reaches the scan for non-count aggregates,
	// but its spoken description shapes the preamble for all of them.
	b.WriteString("\x1fc=")
	if n.Fct != olap.Count {
		b.WriteString(n.Col)
	}
	b.WriteString("\x1fd=")
	b.WriteString(n.ColDescription)
	// Time-windowed scopes answer over different rows than unwindowed ones,
	// so a set window width is part of the key.
	if n.Window.Last > 0 {
		b.WriteString("\x1fw=")
		b.WriteString(n.Window.Last.String())
	}
	for _, g := range n.GroupBy {
		b.WriteString("\x1fg=")
		b.WriteString(canonicalHierarchy(g.Hierarchy))
		b.WriteString("\x1e")
		b.WriteString(strconv.Itoa(g.Level))
	}
	for _, f := range n.Filters {
		b.WriteString("\x1fm=")
		b.WriteString(canonicalHierarchy(f.Hierarchy()))
		writeMemberPath(&b, f)
	}
	return b.String()
}

// canonicalHierarchy names a hierarchy for key purposes, folding spoken
// synonyms through the same table the parser uses (nlq.CanonicalName), so
// parse-time and key-time vocabulary can never drift apart.
func canonicalHierarchy(h *dimension.Hierarchy) string {
	if h == nil {
		return ""
	}
	return nlq.CanonicalName(h.Name)
}

// writeMemberPath appends the member's full root-to-member name path:
// member names are only unique within a level's parent, so the path is the
// member's canonical identity.
func writeMemberPath(b *strings.Builder, m *dimension.Member) {
	if m == nil {
		return
	}
	for level := 1; level <= m.Level; level++ {
		b.WriteString("\x1e")
		b.WriteString(m.AncestorAt(level).Name)
	}
}
