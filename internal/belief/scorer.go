package belief

import (
	"math"
	"math/bits"

	"repro/internal/olap"
	"repro/internal/speech"
)

// Scorer computes speech quality against one fully evaluated result with
// an incremental apply/undo API. Instead of rebuilding every mean from
// scratch per speech (O(aggregates × refinements) per Quality call), the
// scorer keeps a stack of per-depth means vectors: Push applies one
// refinement as a single bitset sweep over the previous depth's vector,
// Pop discards the top vector. A DFS over the speech tree therefore pays
// one sweep per *edge* instead of one full rebuild per *node*.
//
// The arithmetic is bit-for-bit identical to Model.Mean/Model.Quality:
// each depth's means are produced by the same additions, in the same
// order, with the same compensation expression, and Quality evaluates the
// same stats.Normal.Prob calls in ascending aggregate order. A search that
// compares qualities with a strict ">" (core.Optimal) therefore selects
// exactly the same speech either way; see DESIGN.md.
//
// A Scorer is single-goroutine state; parallel searches use one scorer
// each.
type Scorer struct {
	m *Model
	n int

	// Per-aggregate actual values and bucket bounds of the bound result,
	// hoisted out of the per-speech loop: NaN aggregates are marked by
	// ok[i]=false and skipped exactly as Model.Quality skips them.
	// okList/okCnt precompute the skip so Quality iterates the defined
	// aggregates (still in ascending order) without a branch per index;
	// the bucket bounds live in flat his/los arrays so the hot loop is
	// pure indexed float loads.
	vals   []float64
	ok     []bool
	his    []float64
	los    []float64
	okList []int32
	okCnt  int

	// levels[d] is the means vector after applying d refinements;
	// levels[0] is the baseline-only vector.
	levels [][]float64
	refs   []*speech.Refinement
	deltas []float64

	baseline    float64
	hasBaseline bool
}

// NewScorer returns a scorer bound to result, which must be evaluated over
// the model's aggregate space (it panics otherwise, like Model.Quality).
func (m *Model) NewScorer(result *olap.Result) *Scorer {
	if result.Space() != m.space {
		panic("belief: result evaluated over a different aggregate space")
	}
	n := m.space.Size()
	sc := &Scorer{
		m:      m,
		n:      n,
		vals:   make([]float64, n),
		ok:     make([]bool, n),
		his:    make([]float64, n),
		los:    make([]float64, n),
		levels: [][]float64{make([]float64, n)},
	}
	for a := 0; a < n; a++ {
		v := result.Value(a)
		sc.vals[a] = v
		if !math.IsNaN(v) {
			sc.ok[a] = true
			iv := m.bucket(v)
			sc.his[a] = iv.Hi
			sc.los[a] = iv.Lo
			sc.okList = append(sc.okList, int32(a))
		}
	}
	sc.okCnt = len(sc.okList)
	return sc
}

// Reset rebuilds the scorer's state for speech s: the baseline level plus
// one pushed level per refinement. A nil s resets to an empty speech.
func (sc *Scorer) Reset(s *speech.Speech) {
	sc.refs = sc.refs[:0]
	sc.deltas = sc.deltas[:0]
	base := sc.levels[0]
	if s != nil && s.Baseline != nil {
		sc.hasBaseline = true
		sc.baseline = s.Baseline.Value
		for a := range base {
			base[a] = sc.baseline
		}
	} else {
		sc.hasBaseline = false
		sc.baseline = 0
		for a := range base {
			base[a] = 0
		}
	}
	if s != nil {
		for _, r := range s.Refinements {
			sc.Push(r)
		}
	}
}

// Push applies refinement r on top of the current state: one bitset sweep
// producing the next depth's means vector. The delta follows
// speech.Speech.Deltas exactly — relative to the baseline adjusted by
// every previously pushed refinement whose scope subsumes r.
func (sc *Scorer) Push(r *speech.Refinement) {
	var d float64
	if sc.hasBaseline {
		ref := sc.baseline
		for j, pr := range sc.refs {
			if pr.Subsumes(r) {
				ref += sc.deltas[j]
			}
		}
		d = ref * float64(r.Percent) / 100
		if r.Dir == speech.Decrease {
			d = -d
		}
	}
	depth := len(sc.refs)
	src := sc.levels[depth]
	if len(sc.levels) == depth+1 {
		sc.levels = append(sc.levels, make([]float64, sc.n))
	}
	dst := sc.levels[depth+1]

	n := sc.n
	sz := r.ScopeSize
	ss := r.Scope
	if sz <= 0 || ss == nil {
		ss = sc.m.space.ScopeSet(r.Preds)
		if sz <= 0 {
			sz = ss.Size()
		}
	}
	// The compensation uses the identical expression Model.Mean evaluates,
	// computed once per refinement instead of once per aggregate.
	compensate := n > sz
	var comp float64
	if compensate {
		comp = float64(sz) * d / float64(n-sz)
	}
	// Two-phase sweep: fill the whole vector with the out-of-scope value,
	// then rewrite the in-scope entries by iterating the set bits. In-scope
	// entries are recomputed from src (not patched up from the first pass),
	// so every element is exactly src+d or src-comp — the same values the
	// per-element branch would produce.
	if compensate {
		for a, v := range src[:n] {
			dst[a] = v - comp
		}
	} else {
		copy(dst[:n], src[:n])
	}
	for w, bitsW := range ss.Words() {
		base := w << 6
		for bitsW != 0 {
			a := base + bits.TrailingZeros64(bitsW)
			dst[a] = src[a] + d
			bitsW &= bitsW - 1
		}
	}
	sc.refs = append(sc.refs, r)
	sc.deltas = append(sc.deltas, d)
}

// Pop undoes the most recent Push. Because each depth keeps its own means
// vector, undo is an exact stack pop — no floating-point subtraction, so
// the restored state is bitwise the pre-Push state.
func (sc *Scorer) Pop() {
	if len(sc.refs) == 0 {
		panic("belief: Pop on empty scorer")
	}
	sc.refs = sc.refs[:len(sc.refs)-1]
	sc.deltas = sc.deltas[:len(sc.deltas)-1]
}

// Means returns the current means vector (the top of the level stack).
// The slice is owned by the scorer and valid until the next Push/Pop/Reset.
func (sc *Scorer) Means() []float64 { return sc.levels[len(sc.refs)] }

// Quality returns the exact speech quality (Definition 2.2) of the current
// state against the bound result: identical to Model.Quality on the speech
// whose refinements are currently pushed.
func (sc *Scorer) Quality() float64 {
	if sc.okCnt == 0 {
		return 0
	}
	means := sc.levels[len(sc.refs)]
	// Inlined stats.Normal.Prob with the sigma*sqrt2 denominator hoisted
	// out of the loop: the identical operations in the identical order, so
	// every term is bit-for-bit Normal{mu,sigma}.Prob(lo, hi). The
	// hi<=lo early-out needs no branch here — buckets are constant-width
	// windows (Hi >= Lo always), and at zero width the two Erfc terms
	// cancel exactly, matching Prob's 0.
	sd := sc.m.sigma * math.Sqrt2
	var sum float64
	if sc.okCnt == sc.n {
		// Every aggregate is defined (the common case on evaluated
		// results): iterate densely, which also lets the compiler drop
		// the his/los bounds checks. Same aggregates, same ascending
		// order, same arithmetic as the sparse loop below.
		his := sc.his[:len(means)]
		los := sc.los[:len(means)]
		for a, mu := range means {
			p := 0.5*math.Erfc(-(his[a]-mu)/sd) - 0.5*math.Erfc(-(los[a]-mu)/sd)
			if p < 0 {
				p = 0
			}
			sum += p
		}
		return sum / float64(sc.okCnt)
	}
	for _, a := range sc.okList {
		mu := means[a]
		p := 0.5*math.Erfc(-(sc.his[a]-mu)/sd) - 0.5*math.Erfc(-(sc.los[a]-mu)/sd)
		if p < 0 {
			p = 0
		}
		sum += p
	}
	return sum / float64(sc.okCnt)
}

// Score is the one-shot convenience: Reset to s and return its Quality.
func (sc *Scorer) Score(s *speech.Speech) float64 {
	sc.Reset(s)
	return sc.Quality()
}
