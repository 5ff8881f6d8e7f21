package olap

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/dimension"
)

// Space is the enumerated aggregate space of a query: the cross product of
// members at the group-by levels, restricted to the query's filter scope.
// Aggregates are addressed by a dense index in [0, Size()); coordinates are
// one member per group-by dimension.
type Space struct {
	query    Query
	dataset  *Dataset
	bindings []*dimension.Binding
	levels   []int
	// members[d] lists the admissible members of group-by dimension d.
	members [][]*dimension.Member
	// memberPos[d] maps a member to its position within members[d].
	memberPos []map[*dimension.Member]int
	// extraFilters are filters on dimensions that are not grouped; rows
	// must additionally match these to be in scope.
	extraFilters []filterCheck
	size         int
	strides      []int
	// denseDims and denseFilters are the compiled classification tables:
	// per-dimension code-indexed arrays that turn ClassifyRow into a
	// handful of array loads with no map lookups or member pointers.
	denseDims    []denseDim
	denseFilters []denseFilter
	// scopeCache memoizes refinement-scope bitsets (scopeKey -> *ScopeSet)
	// so InScope/ScopeSize are word-indexed loads after the first request
	// for a scope. A sync.Map because the parallel planner resolves scopes
	// from many sampling workers at once.
	scopeCache sync.Map
	// rowLo/rowHi bound the rows in scope when the query carries a
	// trailing time window; rows outside [rowLo, rowHi) classify as out of
	// scope in every classification path, so exact evaluation and sampling
	// both window automatically. windowed gates the bounds checks off the
	// unwindowed hot path.
	rowLo, rowHi int
	windowed     bool
}

type filterCheck struct {
	binding *dimension.Binding
	member  *dimension.Member
}

// denseDim classifies one group-by dimension by dictionary code.
type denseDim struct {
	// codes is the bound column's code slice.
	codes []int32
	// posStride[code] is the member position times the dimension stride,
	// ready to add into the aggregate index, or -1 when the code's member
	// is outside the query scope.
	posStride []int32
}

// denseFilter answers "does this code match the filter member" per code.
type denseFilter struct {
	codes []int32
	ok    []bool
}

// NewSpace enumerates the aggregate space for q over d.
func NewSpace(d *Dataset, q Query) (*Space, error) {
	if err := d.ValidateQuery(q); err != nil {
		return nil, err
	}
	s := &Space{query: q, dataset: d}
	for _, g := range q.GroupBy {
		b := d.Binding(g.Hierarchy)
		scope := g.Hierarchy.Root()
		if f := q.FilterOn(g.Hierarchy); f != nil {
			scope = f
		}
		if scope.Level > g.Level {
			return nil, fmt.Errorf(
				"olap: filter on %q fixes level %d below group-by level %d",
				g.Hierarchy.Name, scope.Level, g.Level)
		}
		ms := scope.DescendantsAt(g.Level)
		if len(ms) == 0 {
			return nil, fmt.Errorf("olap: dimension %q has no members at level %d in scope",
				g.Hierarchy.Name, g.Level)
		}
		pos := make(map[*dimension.Member]int, len(ms))
		for i, m := range ms {
			pos[m] = i
		}
		s.bindings = append(s.bindings, b)
		s.levels = append(s.levels, g.Level)
		s.members = append(s.members, ms)
		s.memberPos = append(s.memberPos, pos)
	}
	for _, f := range q.Filters {
		grouped := false
		for _, g := range q.GroupBy {
			if g.Hierarchy == f.Hierarchy() {
				grouped = true
				break
			}
		}
		if !grouped {
			s.extraFilters = append(s.extraFilters, filterCheck{d.Binding(f.Hierarchy()), f})
		}
	}
	s.size = 1
	s.strides = make([]int, len(s.members))
	for d := len(s.members) - 1; d >= 0; d-- {
		s.strides[d] = s.size
		s.size *= len(s.members[d])
	}
	s.rowLo, s.rowHi = 0, d.tab.NumRows()
	if !q.Window.IsZero() {
		s.rowLo = d.tab.RowsInLast(q.Window.Last)
		s.windowed = s.rowLo > 0
	}
	s.compileDense()
	return s, nil
}

// compileDense precomputes the per-code classification tables: for each
// group-by dimension, a code-indexed position-times-stride value (-1 for
// codes outside the scope); for each extra filter, a code-indexed match
// bitset. Table dictionaries are fixed once a dataset is bound, so one
// O(dict) pass here removes every map lookup from the per-row hot path.
func (s *Space) compileDense() {
	s.denseDims = make([]denseDim, len(s.bindings))
	for d, b := range s.bindings {
		dd := denseDim{
			codes:     b.Column().Codes(),
			posStride: make([]int32, b.DictSize()),
		}
		for code := range dd.posStride {
			m := b.MemberOfCode(int32(code), s.levels[d])
			if p, within := s.memberPos[d][m]; within {
				dd.posStride[code] = int32(p * s.strides[d])
			} else {
				dd.posStride[code] = -1
			}
		}
		s.denseDims[d] = dd
	}
	s.denseFilters = make([]denseFilter, len(s.extraFilters))
	for i, f := range s.extraFilters {
		df := denseFilter{
			codes: f.binding.Column().Codes(),
			ok:    make([]bool, f.binding.DictSize()),
		}
		for code := range df.ok {
			df.ok[code] = f.binding.MemberOfCode(int32(code), f.member.Level) == f.member
		}
		s.denseFilters[i] = df
	}
}

// Query returns the query that spans this space.
func (s *Space) Query() Query { return s.query }

// Dataset returns the dataset the space is defined over.
func (s *Space) Dataset() *Dataset { return s.dataset }

// Size returns the number of aggregates in the query result.
func (s *Space) Size() int { return s.size }

// NumDims returns the number of group-by dimensions.
func (s *Space) NumDims() int { return len(s.members) }

// Members returns the admissible members of group-by dimension d.
func (s *Space) Members(d int) []*dimension.Member { return s.members[d] }

// Coordinates returns the member per dimension for aggregate index idx.
func (s *Space) Coordinates(idx int) []*dimension.Member {
	coords := make([]*dimension.Member, len(s.members))
	for d := range s.members {
		coords[d] = s.members[d][(idx/s.strides[d])%len(s.members[d])]
	}
	return coords
}

// IndexOf returns the aggregate index for the given coordinates, or -1 if
// any coordinate is not an admissible member of its dimension.
func (s *Space) IndexOf(coords []*dimension.Member) int {
	if len(coords) != len(s.members) {
		return -1
	}
	idx := 0
	for d, m := range coords {
		p, ok := s.memberPos[d][m]
		if !ok {
			return -1
		}
		idx += p * s.strides[d]
	}
	return idx
}

// RowBounds returns the half-open row range [lo, hi) the space's query
// covers: the whole table for unwindowed queries, the trailing-window rows
// otherwise.
func (s *Space) RowBounds() (lo, hi int) { return s.rowLo, s.rowHi }

// ClassifyRow maps a table row to its aggregate index, or returns ok=false
// when the row is outside the query scope. The compiled per-code tables
// make this a few array loads per dimension.
func (s *Space) ClassifyRow(row int) (idx int, ok bool) {
	if s.windowed && (row < s.rowLo || row >= s.rowHi) {
		return 0, false
	}
	for i := range s.denseFilters {
		f := &s.denseFilters[i]
		if !f.ok[f.codes[row]] {
			return 0, false
		}
	}
	for d := range s.denseDims {
		dd := &s.denseDims[d]
		v := dd.posStride[dd.codes[row]]
		if v < 0 {
			return 0, false
		}
		idx += int(v)
	}
	return idx, true
}

// TouchRows loads the code of every given row in each column that
// ClassifyRows reads and returns their sum, which the caller must keep (Go
// has no prefetch intrinsic, and a load whose result is dropped is deleted).
// The loads do not depend on one another, so the cache and TLB misses of all
// rows and columns are in flight together, where classification takes them
// one dimension after another. One row per cache line is enough.
func (s *Space) TouchRows(rows []int) (sink int32) {
	for i := range s.denseFilters {
		codes := s.denseFilters[i].codes
		for _, r := range rows {
			sink += codes[r]
		}
	}
	for d := range s.denseDims {
		codes := s.denseDims[d].codes
		for _, r := range rows {
			sink += codes[r]
		}
	}
	return sink
}

// ClassifyRows classifies a batch of row indices into out (len(out) must be
// at least len(rows)): out[i] is the aggregate index of rows[i], or -1 when
// that row is outside the query scope. Processing is dimension-major so
// each per-code table stays hot in cache across the whole batch.
func (s *Space) ClassifyRows(rows []int, out []int32) {
	if s.windowed {
		for i, r := range rows {
			if r < s.rowLo || r >= s.rowHi {
				out[i] = -1
			} else {
				out[i] = 0
			}
		}
	} else {
		for i := range rows {
			out[i] = 0
		}
	}
	for fi := range s.denseFilters {
		f := &s.denseFilters[fi]
		for i, r := range rows {
			if out[i] >= 0 && !f.ok[f.codes[r]] {
				out[i] = -1
			}
		}
	}
	for d := range s.denseDims {
		dd := &s.denseDims[d]
		for i, r := range rows {
			if out[i] < 0 {
				continue
			}
			if v := dd.posStride[dd.codes[r]]; v < 0 {
				out[i] = -1
			} else {
				out[i] += v
			}
		}
	}
}

// ClassifyRange classifies the contiguous rows [lo, hi) into out (length at
// least hi-lo), writing the aggregate index or -1 per row. The inner loop
// slices the code arrays directly; it is what the exact scan runs per chunk.
func (s *Space) ClassifyRange(lo, hi int, out []int32) {
	n := hi - lo
	if s.windowed {
		for i := 0; i < n; i++ {
			if r := lo + i; r < s.rowLo || r >= s.rowHi {
				out[i] = -1
			} else {
				out[i] = 0
			}
		}
	} else {
		for i := 0; i < n; i++ {
			out[i] = 0
		}
	}
	for fi := range s.denseFilters {
		f := &s.denseFilters[fi]
		for i, code := range f.codes[lo:hi] {
			if out[i] >= 0 && !f.ok[code] {
				out[i] = -1
			}
		}
	}
	for d := range s.denseDims {
		dd := &s.denseDims[d]
		for i, code := range dd.codes[lo:hi] {
			if out[i] < 0 {
				continue
			}
			if v := dd.posStride[code]; v < 0 {
				out[i] = -1
			} else {
				out[i] += v
			}
		}
	}
}

// InScope reports whether aggregate idx matches all the given predicate
// members (each predicate is a member of one of the group-by hierarchies;
// the aggregate's coordinate in that hierarchy must be a descendant).
// Predicates on hierarchies that are not grouped match everything (the
// query filter already restricted them). The check is one bitset load
// against the cached ScopeSet of preds; inScopeRef is the member-walking
// reference implementation the bitsets are verified against.
func (s *Space) InScope(idx int, preds []*dimension.Member) bool {
	if len(preds) == 0 {
		return true
	}
	return s.ScopeSet(preds).Contains(idx)
}

// inScopeRef is the pre-bitset reference implementation of InScope.
func (s *Space) inScopeRef(idx int, preds []*dimension.Member) bool {
	for _, p := range preds {
		matched := false
		found := false
		for d := range s.members {
			if s.bindings[d].Hierarchy() == p.Hierarchy() {
				found = true
				coord := s.members[d][(idx/s.strides[d])%len(s.members[d])]
				matched = coord.IsDescendantOf(p)
				break
			}
		}
		if found && !matched {
			return false
		}
	}
	return true
}

// ScopeSize returns the number of aggregates matching all predicates
// (multiple predicates on one hierarchy intersect — distinct siblings
// have an empty scope). It is the cached popcount of the scope's bitset;
// scopeSizeRef is the counting reference implementation.
func (s *Space) ScopeSize(preds []*dimension.Member) int {
	if len(preds) == 0 {
		return s.size
	}
	return s.ScopeSet(preds).Size()
}

// scopeSizeRef is the pre-bitset reference implementation of ScopeSize:
// per group-by dimension, the count of admissible members lying in the
// subtree of every predicate on that hierarchy, multiplied across
// dimensions without enumerating the aggregate space.
func (s *Space) scopeSizeRef(preds []*dimension.Member) int {
	n := 1
	for d := range s.members {
		h := s.bindings[d].Hierarchy()
		var dimPreds []*dimension.Member
		for _, p := range preds {
			if p.Hierarchy() == h {
				dimPreds = append(dimPreds, p)
			}
		}
		if len(dimPreds) == 0 {
			n *= len(s.members[d])
			continue
		}
		count := 0
		for _, m := range s.members[d] {
			all := true
			for _, p := range dimPreds {
				if !m.IsDescendantOf(p) {
					all = false
					break
				}
			}
			if all {
				count++
			}
		}
		n *= count
	}
	return n
}

// AggregateName renders the coordinates of aggregate idx for diagnostics,
// e.g. "the North East / Winter".
func (s *Space) AggregateName(idx int) string {
	coords := s.Coordinates(idx)
	parts := make([]string, len(coords))
	for i, m := range coords {
		parts[i] = m.Name
	}
	return strings.Join(parts, " / ")
}
