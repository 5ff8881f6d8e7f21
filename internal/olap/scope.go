package olap

import (
	"math/bits"

	"repro/internal/dimension"
)

// ScopeSet is the precomputed membership bitset of a predicate set over a
// space's aggregates. It turns the planner's hottest operations — "is
// aggregate a in this refinement's scope" and "how many aggregates does
// this scope cover" — into a word-indexed load and a cached popcount,
// replacing per-call member comparisons and hierarchy walks. ScopeSets are
// immutable once built and are shared freely across goroutines.
type ScopeSet struct {
	words []uint64
	size  int
}

// Contains reports whether aggregate idx is in scope.
func (ss *ScopeSet) Contains(idx int) bool {
	return ss.words[uint(idx)>>6]&(1<<(uint(idx)&63)) != 0
}

// Size returns the number of aggregates in scope (the popcount of the
// bitset, i.e. the m of the paper's refinement semantics).
func (ss *ScopeSet) Size() int { return ss.size }

// Intersects reports whether the two sets, built over the same space,
// share an aggregate.
func (ss *ScopeSet) Intersects(o *ScopeSet) bool {
	for i, w := range ss.words {
		if w&o.words[i] != 0 {
			return true
		}
	}
	return false
}

// Words exposes the backing bitset for vectorized sweeps (one uint64 per
// 64 aggregates, LSB first). Callers must not mutate it.
func (ss *ScopeSet) Words() []uint64 { return ss.words }

// scopeKeyMax bounds the predicate count for which scope sets are cached;
// longer predicate lists (never produced by the generator, whose menu caps
// at MaxPredsPerRefinement) are built on demand without caching.
const scopeKeyMax = 4

// scopeKey is the comparable cache key of a predicate list, padded with
// nil (a predicate is never nil, so the padding marks the list's end).
// Predicate order is part of the key: the generator emits each scope with a
// stable ordering, so at worst a reordered alias costs one duplicate
// (identical) bitset.
type scopeKey [scopeKeyMax]*dimension.Member

// ScopeSet returns the (cached) membership bitset of preds over this
// space. The first request for a scope builds the bitset in one pass over
// the per-dimension member lists; all later requests — and every
// InScope/ScopeSize call — are lookups.
func (s *Space) ScopeSet(preds []*dimension.Member) *ScopeSet {
	if len(preds) > scopeKeyMax {
		return s.buildScopeSet(preds)
	}
	var key scopeKey
	copy(key[:], preds)
	if v, ok := s.scopeCache.Load(key); ok {
		return v.(*ScopeSet)
	}
	ss := s.buildScopeSet(preds)
	v, _ := s.scopeCache.LoadOrStore(key, ss)
	return v.(*ScopeSet)
}

// buildScopeSet materializes the bitset for preds. The scope is
// decomposable per group-by dimension: an aggregate is in scope iff its
// coordinate in each dimension is a descendant of every predicate on that
// dimension's hierarchy (predicates on ungrouped hierarchies match
// everything — the query filter already restricted them). Like InScope,
// each predicate binds to the first group-by dimension of its hierarchy.
func (s *Space) buildScopeSet(preds []*dimension.Member) *ScopeSet {
	ss := &ScopeSet{words: make([]uint64, (s.size+63)/64)}
	allowed := make([][]bool, len(s.members))
	constrained := false
	for _, p := range preds {
		for d := range s.members {
			if s.bindings[d].Hierarchy() != p.Hierarchy() {
				continue
			}
			if allowed[d] == nil {
				allowed[d] = make([]bool, len(s.members[d]))
				for i := range allowed[d] {
					allowed[d][i] = true
				}
				constrained = true
			}
			for i, m := range s.members[d] {
				if allowed[d][i] && !m.IsDescendantOf(p) {
					allowed[d][i] = false
				}
			}
			break
		}
	}
	if !constrained {
		for idx := 0; idx < s.size; idx++ {
			ss.words[uint(idx)>>6] |= 1 << (uint(idx) & 63)
		}
		ss.size = s.size
		return ss
	}
	for idx := 0; idx < s.size; idx++ {
		in := true
		for d, dimAllowed := range allowed {
			if dimAllowed == nil {
				continue
			}
			if !dimAllowed[(idx/s.strides[d])%len(s.members[d])] {
				in = false
				break
			}
		}
		if in {
			ss.words[uint(idx)>>6] |= 1 << (uint(idx) & 63)
		}
	}
	for _, w := range ss.words {
		ss.size += bits.OnesCount64(w)
	}
	return ss
}
