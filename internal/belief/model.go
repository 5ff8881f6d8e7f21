// Package belief implements the paper's probabilistic user model (Section
// 3.4): after hearing a speech, a listener assigns each result aggregate a
// normal-distribution belief N(M(a,t), σ). The mean assignment M is
// recursive — the baseline fixes all means, each refinement shifts the
// aggregates in its scope by an additive Δ and compensates the rest so the
// average stays consistent with the baseline (Theorem A.1). Speech quality
// (Definition 2.2) is the average probability the belief assigns to the
// actual value's rounding bucket.
package belief

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/olap"
	"repro/internal/speech"
	"repro/internal/stats"
)

// Model scores speeches for one query under the user behavior model.
type Model struct {
	space *olap.Space
	sigma float64
	// bucketStep is the width of the probability bucket representing a
	// value, constant across aggregates. Example 4.3 buckets a 90 K
	// estimate as [85 K, 95 K): one significant digit of the query's
	// value scale, i.e. step 10^floor(log10(scale)). A constant width
	// keeps small aggregates from being drowned out by wide-bucket large
	// ones. NewModel derives it from σ (scale = 2σ).
	bucketStep float64
}

// SigmaFromScale derives the model's constant standard deviation from the
// query's grand-average scale: the pilot study supports σ of roughly half
// the mean (Example 3.4 uses 40 000 for an 80 000 average).
func SigmaFromScale(scale float64) float64 {
	return scale / 2
}

// NewModel creates a belief model with the given constant σ (> 0).
func NewModel(space *olap.Space, sigma float64) (*Model, error) {
	if space == nil {
		return nil, errors.New("belief: nil aggregate space")
	}
	if math.IsNaN(sigma) || sigma <= 0 {
		return nil, fmt.Errorf("belief: sigma must be positive, got %v", sigma)
	}
	return &Model{space: space, sigma: sigma, bucketStep: BucketStepForScale(2 * sigma)}, nil
}

// BucketStepForScale returns the one-significant-digit step of a value
// scale: 0.02 -> 0.01, 90 000 -> 10 000.
func BucketStepForScale(scale float64) float64 {
	if math.IsNaN(scale) || scale <= 0 {
		return 1
	}
	return math.Pow(10, math.Floor(math.Log10(scale)))
}

// Space returns the aggregate space the model scores against.
func (m *Model) Space() *olap.Space { return m.space }

// Sigma returns the model's constant standard deviation.
func (m *Model) Sigma() float64 { return m.sigma }

// Mean returns M(agg, s): the expected value the listener assigns to
// aggregate agg after hearing s. Cost is O(k) in the number of refinements
// — beliefs for single aggregates never require instantiating the full
// result, which is what makes sampling-based rewards cheap.
func (m *Model) Mean(s *speech.Speech, agg int) float64 {
	if s.Baseline == nil {
		return 0
	}
	mean := s.Baseline.Value
	n := m.space.Size()
	deltas := s.Deltas()
	for i, r := range s.Refinements {
		sz := r.ScopeSize
		if sz <= 0 {
			sz = m.space.ScopeSize(r.Preds)
		}
		var in bool
		if r.Scope != nil {
			in = r.Scope.Contains(agg) // generator-built: skip the scope-cache lookup
		} else {
			in = m.space.InScope(agg, r.Preds)
		}
		if in {
			mean += deltas[i]
		} else if n > sz {
			mean -= float64(sz) * deltas[i] / float64(n-sz)
		}
	}
	return mean
}

// Means returns M(a, s) for every aggregate.
func (m *Model) Means(s *speech.Speech) []float64 {
	out := make([]float64, m.space.Size())
	for a := range out {
		out[a] = m.Mean(s, a)
	}
	return out
}

// Belief returns the listener's distribution for aggregate agg.
func (m *Model) Belief(s *speech.Speech, agg int) stats.Normal {
	return stats.Normal{Mu: m.Mean(s, agg), Sigma: m.sigma}
}

// bucket returns the probability interval representing value v: the
// constant-width window [v - step/2, v + step/2), matching Example 4.3's
// rounding bucket and giving every aggregate equal reward headroom.
func (m *Model) bucket(v float64) stats.Interval {
	return stats.Interval{Lo: v - m.bucketStep/2, Hi: v + m.bucketStep/2}
}

// Reward scores how well speech s explains an estimate for aggregate agg:
// the belief probability of the estimate's rounding bucket (the return
// value of SpeechDBeval in Algorithm 3). It lies in [0, 1].
func (m *Model) Reward(s *speech.Speech, agg int, estimate float64) float64 {
	b := m.Belief(s, agg)
	iv := m.bucket(estimate)
	return b.Prob(iv.Lo, iv.Hi)
}

// Quality computes the exact speech quality of Definition 2.2 against a
// fully evaluated result: the average over aggregates of the probability
// the induced belief assigns to the actual value's bucket. Aggregates with
// no rows (NaN averages) are skipped.
func (m *Model) Quality(s *speech.Speech, result *olap.Result) float64 {
	if result.Space() != m.space {
		panic("belief: result evaluated over a different aggregate space")
	}
	var sum float64
	var n int
	for a := 0; a < m.space.Size(); a++ {
		v := result.Value(a)
		if math.IsNaN(v) {
			continue
		}
		sum += m.Reward(s, a, v)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
