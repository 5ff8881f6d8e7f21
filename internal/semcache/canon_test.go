package semcache

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/dimension"
	"repro/internal/olap"
)

// testHierarchies builds a small schema with different depths so level
// handling is exercised: airport(region,state,city), date(season,month),
// airline(airline).
func testHierarchies() (airport, date, airline *dimension.Hierarchy) {
	airport = dimension.MustNewHierarchy("start airport", "ap", "airports", "all airports",
		[]string{"region", "state", "city"})
	airport.MustAddPath("West", "California", "San Francisco")
	airport.MustAddPath("West", "Washington", "Seattle")
	airport.MustAddPath("East", "New York", "New York City")
	date = dimension.MustNewHierarchy("flight date", "dt", "dates", "the whole year",
		[]string{"season", "month"})
	date.MustAddPath("Winter", "January")
	date.MustAddPath("Summer", "July")
	airline = dimension.MustNewHierarchy("airline", "al", "airlines", "all airlines",
		[]string{"airline"})
	airline.MustAddPath("Oceanic")
	airline.MustAddPath("Ajira")
	return airport, date, airline
}

// signature is an implementation-independent canonical description of a
// query, built with nothing but sorted strings: the ground truth the Key
// must be a bijection of.
func signature(q olap.Query) string {
	var groups, filters []string
	for _, g := range q.GroupBy {
		groups = append(groups, fmt.Sprintf("%s@%d", strings.ToLower(g.Hierarchy.Name), g.Level))
	}
	sort.Strings(groups)
	for _, f := range q.Filters {
		var path []string
		for l := 1; l <= f.Level; l++ {
			path = append(path, f.AncestorAt(l).Name)
		}
		filters = append(filters, strings.ToLower(f.Hierarchy().Name)+"="+strings.Join(path, "/"))
	}
	sort.Strings(filters)
	col := q.Col
	if q.Fct == olap.Count {
		col = ""
	}
	return fmt.Sprintf("%v|%s|%s|%v|%v", q.Fct, col, q.ColDescription, groups, filters)
}

// permutations returns every ordering of idxs (n <= 3 here, so at most 6).
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for _, rest := range permutations(n - 1) {
		for pos := 0; pos <= len(rest); pos++ {
			p := append([]int{}, rest[:pos]...)
			p = append(p, n-1)
			p = append(p, rest[pos:]...)
			out = append(out, p)
		}
	}
	return out
}

// corpus generates every query over the test schema: all aggregate
// functions, all non-empty scope subsets with all level choices, and all
// per-hierarchy filter choices (none or one of two members).
func corpus(t testing.TB) []olap.Query {
	t.Helper()
	airport, date, airline := testHierarchies()
	hs := []*dimension.Hierarchy{airport, date, airline}
	filterChoices := [][]*dimension.Member{
		{nil, airport.FindMember("West"), airport.FindMember("San Francisco")},
		{nil, date.FindMember("Winter"), date.FindMember("July")},
		{nil, airline.FindMember("Oceanic")},
	}
	var queries []olap.Query
	for _, fct := range []olap.AggFunc{olap.Count, olap.Sum, olap.Avg} {
		for mask := 1; mask < 1<<len(hs); mask++ {
			var scoped []*dimension.Hierarchy
			for i, h := range hs {
				if mask&(1<<i) != 0 {
					scoped = append(scoped, h)
				}
			}
			// Enumerate level assignments for the scoped hierarchies.
			levels := make([]int, len(scoped))
			for i := range levels {
				levels[i] = 1
			}
			for {
				var gb []olap.GroupBy
				for i, h := range scoped {
					gb = append(gb, olap.GroupBy{Hierarchy: h, Level: levels[i]})
				}
				for fmask := 0; fmask < 27; fmask++ {
					var filters []*dimension.Member
					fm := fmask
					for i := 0; i < 3; i++ {
						choice := fm % 3
						fm /= 3
						if choice < len(filterChoices[i]) && filterChoices[i][choice] != nil {
							filters = append(filters, filterChoices[i][choice])
						}
					}
					queries = append(queries, olap.Query{
						Fct: fct, Col: "cancelled", ColDescription: "average cancellation probability",
						GroupBy: gb, Filters: filters,
					})
				}
				// Advance the level counter, odometer style.
				i := 0
				for ; i < len(scoped); i++ {
					if levels[i] < scoped[i].Depth() {
						levels[i]++
						break
					}
					levels[i] = 1
				}
				if i == len(scoped) {
					break
				}
			}
		}
	}
	return queries
}

// TestKeyCanonicalEquality is the proof-style corpus test: every ordering
// of a query's scopes and filters produces the byte-identical key, and two
// queries with different canonical signatures never share a key.
func TestKeyCanonicalEquality(t *testing.T) {
	queries := corpus(t)
	if len(queries) < 1000 {
		t.Fatalf("corpus too small to prove anything: %d queries", len(queries))
	}
	keyBySig := make(map[string]string)
	sigByKey := make(map[string]string)
	for _, q := range queries {
		sig := signature(q)
		base := Key(q)
		// Equality direction: every permutation of GroupBy and Filters is
		// canonically equal and must produce the identical byte string.
		for _, perm := range permutations(len(q.GroupBy)) {
			for _, fperm := range permutations(len(q.Filters)) {
				pq := q
				pq.GroupBy = make([]olap.GroupBy, len(q.GroupBy))
				for i, j := range perm {
					pq.GroupBy[i] = q.GroupBy[j]
				}
				pq.Filters = make([]*dimension.Member, len(q.Filters))
				for i, j := range fperm {
					pq.Filters[i] = q.Filters[j]
				}
				if got := Key(pq); got != base {
					t.Fatalf("permuted key differs:\n  base %q\n  perm %q\n  sig  %s", base, got, sig)
				}
			}
		}
		// Collision direction: one key per signature, one signature per key.
		if prev, ok := keyBySig[sig]; ok && prev != base {
			t.Fatalf("signature %s mapped to two keys:\n  %q\n  %q", sig, prev, base)
		}
		keyBySig[sig] = base
		if prevSig, ok := sigByKey[base]; ok && prevSig != sig {
			t.Fatalf("key collision between distinct queries:\n  key %q\n  sig1 %s\n  sig2 %s", base, prevSig, sig)
		}
		sigByKey[base] = sig
	}
	t.Logf("corpus: %d queries, %d distinct canonical forms, zero collisions", len(queries), len(sigByKey))
}

// The fuzz encoding of a query, a byte a choice (taken modulo the number of
// choices; a missing byte reads 0): function, measure column, spoken
// description, window, then a group-by count followed by a hierarchy and
// a level byte for each, then a filter count followed by a hierarchy, a
// level and a member byte for each. A group-by or filter on a hierarchy
// the query already groups or filters by is dropped.
var (
	fuzzFcts    = []olap.AggFunc{olap.Count, olap.Sum, olap.Avg}
	fuzzCols    = []string{"cancelled", "delayed"}
	fuzzDescs   = []string{"average cancellation probability", "delay share"}
	fuzzWindows = []time.Duration{0, time.Hour, 24 * time.Hour, 7 * 24 * time.Hour}
)

// fuzzBytes hands out the choices of a fuzz-encoded query.
type fuzzBytes []byte

// pick returns the next choice among n.
func (b *fuzzBytes) pick(n int) int {
	if len(*b) == 0 {
		return 0
	}
	c := int((*b)[0]) % n
	*b = (*b)[1:]
	return c
}

// decodeQuery builds the query data encodes over hierarchies hs.
func decodeQuery(data []byte, hs []*dimension.Hierarchy) olap.Query {
	b := fuzzBytes(data)
	q := olap.Query{
		Fct:            fuzzFcts[b.pick(len(fuzzFcts))],
		Col:            fuzzCols[b.pick(len(fuzzCols))],
		ColDescription: fuzzDescs[b.pick(len(fuzzDescs))],
		Window:         olap.Window{Last: fuzzWindows[b.pick(len(fuzzWindows))]},
	}
	grouped := map[*dimension.Hierarchy]bool{}
	for n := b.pick(4); n > 0; n-- {
		h := hs[b.pick(len(hs))]
		level := 1 + b.pick(h.Depth())
		if !grouped[h] {
			grouped[h] = true
			q.GroupBy = append(q.GroupBy, olap.GroupBy{Hierarchy: h, Level: level})
		}
	}
	filtered := map[*dimension.Hierarchy]bool{}
	for n := b.pick(4); n > 0; n-- {
		h := hs[b.pick(len(hs))]
		members := h.MembersAt(1 + b.pick(h.Depth()))
		m := members[b.pick(len(members))]
		if !filtered[h] {
			filtered[h] = true
			q.Filters = append(q.Filters, m)
		}
	}
	return q
}

// encodeQuery is decodeQuery's inverse for a query in the fuzz alphabet
// whose hierarchies are named as those of hs, in any schema; it panics on
// a query outside the alphabet.
func encodeQuery(q olap.Query, hs []*dimension.Hierarchy) []byte {
	index := func(n int, match func(int) bool) byte {
		for i := 0; i < n; i++ {
			if match(i) {
				return byte(i)
			}
		}
		panic(fmt.Sprintf("encodeQuery: %+v is outside the fuzz alphabet", q))
	}
	hier := func(h *dimension.Hierarchy) byte {
		return index(len(hs), func(i int) bool { return hs[i].Name == h.Name })
	}
	out := []byte{
		index(len(fuzzFcts), func(i int) bool { return fuzzFcts[i] == q.Fct }),
		index(len(fuzzCols), func(i int) bool { return fuzzCols[i] == q.Col }),
		index(len(fuzzDescs), func(i int) bool { return fuzzDescs[i] == q.ColDescription }),
		index(len(fuzzWindows), func(i int) bool { return fuzzWindows[i] == q.Window.Last }),
		byte(len(q.GroupBy)),
	}
	for _, g := range q.GroupBy {
		out = append(out, hier(g.Hierarchy), byte(g.Level-1))
	}
	out = append(out, byte(len(q.Filters)))
	for _, m := range q.Filters {
		members := m.Hierarchy().MembersAt(m.Level)
		out = append(out, hier(m.Hierarchy()), byte(m.Level-1),
			index(len(members), func(i int) bool { return members[i] == m }))
	}
	return out
}

// sameNormalized reports whether normalized queries a and b agree in every
// field Key reads; the measure column is ignored for COUNT.
func sameNormalized(a, b olap.Query) bool {
	if a.Fct != b.Fct || (a.Fct != olap.Count && a.Col != b.Col) ||
		a.ColDescription != b.ColDescription || a.Window != b.Window ||
		len(a.GroupBy) != len(b.GroupBy) || len(a.Filters) != len(b.Filters) {
		return false
	}
	for i := range a.GroupBy {
		if a.GroupBy[i] != b.GroupBy[i] {
			return false
		}
	}
	for i := range a.Filters {
		if a.Filters[i] != b.Filters[i] {
			return false
		}
	}
	return true
}

// FuzzKeyMatchesNormalize holds Key to its contract over the flights
// hierarchies: two queries get equal keys exactly when their Normalize'd
// forms agree. The seeds are TestKeyCanonicalEquality's pairs carried to
// the flights schema: a corpus query with its scopes and filters reversed
// (equal keys) and the same query beside the next one (distinct keys).
func FuzzKeyMatchesNormalize(f *testing.F) {
	airport, date, airline := datagen.FlightHierarchies()
	hs := []*dimension.Hierarchy{airport, date, airline}
	queries := corpus(f)
	for i := 0; i < len(queries)-1; i += 97 {
		q := queries[i]
		r := q
		r.GroupBy = slices.Clone(q.GroupBy)
		r.Filters = slices.Clone(q.Filters)
		slices.Reverse(r.GroupBy)
		slices.Reverse(r.Filters)
		f.Add(encodeQuery(q, hs), encodeQuery(r, hs))
		f.Add(encodeQuery(q, hs), encodeQuery(queries[i+1], hs))
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		qa, qb := decodeQuery(a, hs), decodeQuery(b, hs)
		same := sameNormalized(Normalize(qa), Normalize(qb))
		if ka, kb := Key(qa), Key(qb); (ka == kb) != same {
			t.Fatalf("Key equality %v, normalized forms equal %v:\n  a %+v\n  b %+v\n  key a %q\n  key b %q",
				ka == kb, same, qa, qb, ka, kb)
		}
	})
}

// TestKeySynonymNormalization pins the shared-vocabulary property: a
// hierarchy named by a spoken alias ("carrier") keys identically to one
// named canonically ("airline"), because both go through nlq.CanonicalName.
func TestKeySynonymNormalization(t *testing.T) {
	build := func(name string) *dimension.Hierarchy {
		h := dimension.MustNewHierarchy(name, "al", "airlines", "all airlines", []string{name})
		h.MustAddPath("Oceanic")
		return h
	}
	carrier, airline := build("carrier"), build("airline")
	mk := func(h *dimension.Hierarchy) olap.Query {
		return olap.Query{
			Fct: olap.Avg, Col: "cancelled", ColDescription: "average cancellation probability",
			GroupBy: []olap.GroupBy{{Hierarchy: h, Level: 1}},
		}
	}
	if Key(mk(carrier)) != Key(mk(airline)) {
		t.Errorf("synonym hierarchies key differently:\n  %q\n  %q", Key(mk(carrier)), Key(mk(airline)))
	}
}

// TestNormalizeSortsWithoutMutating pins Normalize's contract: sorted by
// canonical hierarchy name, original untouched.
func TestNormalizeSortsWithoutMutating(t *testing.T) {
	airport, date, airline := testHierarchies()
	q := olap.Query{
		Fct: olap.Avg, Col: "c", ColDescription: "d",
		GroupBy: []olap.GroupBy{
			{Hierarchy: date, Level: 2},
			{Hierarchy: airport, Level: 1},
			{Hierarchy: airline, Level: 1},
		},
		Filters: []*dimension.Member{date.FindMember("Winter"), airport.FindMember("West")},
	}
	orig0 := q.GroupBy[0]
	n := Normalize(q)
	want := []string{"airline", "flight date", "start airport"}
	for i, g := range n.GroupBy {
		if g.Hierarchy.Name != want[i] {
			t.Errorf("GroupBy[%d] = %q, want %q", i, g.Hierarchy.Name, want[i])
		}
	}
	if n.Filters[0].Hierarchy() != date || n.Filters[1].Hierarchy() != airport {
		t.Errorf("filters not sorted by canonical hierarchy name")
	}
	if q.GroupBy[0] != orig0 {
		t.Error("Normalize mutated its input")
	}
	if Key(q) != Key(n) {
		t.Error("normalized query keys differently from the original")
	}
}
