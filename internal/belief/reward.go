package belief

import (
	"math"

	"repro/internal/dimension"
	"repro/internal/olap"
	"repro/internal/speech"
)

// RewardKernel is a per-worker reward evaluator producing bit-identical
// results to Model.Reward. The model itself is already safe to share across
// planner workers (it only reads immutable state), but every Reward call
// re-derives the same per-speech quantities: the refinement deltas, scope
// sizes, and compensation terms of Mean, plus the bucket step and the
// σ·√2 denominator of the normal CDF. MCTS evaluates each leaf speech many
// times per batch, so a worker-private kernel memoizes the per-speech terms
// (keyed on the speech pointer — speeches are immutable once built, so a
// scratch speech rewritten with Speech.SetFragments must never reach a
// kernel) and hoists the constants, leaving only two Erfc calls and a short
// scope-membership loop on the hot path.
//
// Exactness contract: for any speech, aggregate, and estimate,
// kernel.Reward == model.Reward down to the last bit (pinned by
// TestRewardKernelBitIdentical). Every floating-point expression below is
// the same expression Model.Reward evaluates, merely computed once instead
// of per call; no reassociation, no fused alternatives.
//
// A kernel is NOT safe for concurrent use. It snapshots Model.BucketStep at
// creation, so mutate BucketStep before building kernels, not during a batch.
//
// Nothing in the repository builds one: the kernel served the workers of the
// parallel sampler, which is gone. This file stays because
// benchmark/probes.go:233 times NewRewardKernel; ROADMAP item 1 removes it.
type RewardKernel struct {
	space    *olap.Space
	sd       float64 // sigma * √2: the CDF denominator, hoisted
	halfStep float64 // bucket step / 2: the bucket half-width, hoisted
	cache    map[*speech.Speech]*rewardTerms
}

// rewardTerms is the compiled form of one speech: the baseline value plus
// one precomputed term per refinement.
type rewardTerms struct {
	base  float64
	terms []rewardTerm
}

// rewardTerm carries a refinement's per-aggregate contribution to Mean:
// +delta when the aggregate is in scope, -comp when out of scope (and the
// scope does not cover the whole space).
type rewardTerm struct {
	scope      *olap.ScopeSet      // generator-built membership bitset
	preds      []*dimension.Member // fallback membership when scope is nil
	delta      float64
	comp       float64
	compensate bool
}

// NewRewardKernel returns a fresh single-worker kernel for the model.
func (m *Model) NewRewardKernel() *RewardKernel {
	step := m.BucketStep
	if step <= 0 {
		step = BucketStepForScale(2 * m.sigma)
	}
	return &RewardKernel{
		space:    m.space,
		sd:       m.sigma * math.Sqrt2,
		halfStep: step / 2,
		cache:    make(map[*speech.Speech]*rewardTerms),
	}
}

// Reward is Model.Reward with the per-speech terms memoized: the belief
// probability of the estimate's rounding bucket under the mean M(agg, s).
func (k *RewardKernel) Reward(s *speech.Speech, agg int, estimate float64) float64 {
	c, ok := k.cache[s]
	if !ok {
		c = k.compile(s)
		k.cache[s] = c
	}
	mean := c.base
	for i := range c.terms {
		t := &c.terms[i]
		var in bool
		if t.scope != nil {
			in = t.scope.Contains(agg)
		} else {
			in = k.space.InScope(agg, t.preds)
		}
		if in {
			mean += t.delta
		} else if t.compensate {
			mean -= t.comp
		}
	}
	lo := estimate - k.halfStep
	hi := estimate + k.halfStep
	if hi <= lo {
		return 0
	}
	p := 0.5*math.Erfc(-(hi-mean)/k.sd) - 0.5*math.Erfc(-(lo-mean)/k.sd)
	if p < 0 {
		return 0
	}
	return p
}

// compile precomputes a speech's mean terms. The compensation term
// float64(sz)*deltas[i]/float64(n-sz) is evaluated exactly as in
// Model.Mean, so replaying it per aggregate stays bit-identical.
func (k *RewardKernel) compile(s *speech.Speech) *rewardTerms {
	c := &rewardTerms{}
	if s.Baseline == nil {
		return c // Mean is identically 0 without a baseline
	}
	c.base = s.Baseline.Value
	n := k.space.Size()
	deltas := s.Deltas()
	c.terms = make([]rewardTerm, len(s.Refinements))
	for i, r := range s.Refinements {
		sz := r.ScopeSize
		if sz <= 0 {
			sz = k.space.ScopeSize(r.Preds)
		}
		t := &c.terms[i]
		t.scope = r.Scope
		t.preds = r.Preds
		t.delta = deltas[i]
		if n > sz {
			t.compensate = true
			t.comp = float64(sz) * deltas[i] / float64(n-sz)
		}
	}
	return c
}
