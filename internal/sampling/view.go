package sampling

// Nothing in the repository builds a view: the cache tier that planned over
// them is gone. This file stays because benchmark/probes.go:142 times
// BuildView; ROADMAP item 1 removes it, and the Estimator interface with it.

import (
	"errors"
	"math/rand"

	"repro/internal/olap"
	"repro/internal/stats"
)

// Estimator is the interface the speech evaluator needs from a sample
// source: pick an aggregate with data and estimate its value. The on-line
// Cache implements it; View implements it from a materialized sample.
type Estimator interface {
	// PickAggregate selects a random eligible aggregate.
	PickAggregate(rng *rand.Rand) (int, bool)
	// Estimate derives a value estimate for aggregate a.
	Estimate(a int, rng *rand.Rand) (float64, bool)
}

// Compile-time checks.
var (
	_ Estimator = (*Cache)(nil)
	_ Estimator = (*View)(nil)
)

// View is a materialized sample view in the spirit of Joshi & Jermaine's
// sample views, which the paper cites as the extension for estimating
// particularly small data subsets (Section 4.3): one full scan at build
// time keeps an exact row count and a bounded uniform reservoir of measure
// values per aggregate. Afterwards every aggregate — however rare — has
// instant, scan-free estimates, at the cost of the up-front build and of
// staleness under updates.
type View struct {
	space      *olap.Space
	counts     []int64
	reservoirs [][]float64
	nonEmpty   []int
	nrRows     int64
	// ReservoirSize is the per-aggregate sample bound used at build time.
	ReservoirSize int
}

// DefaultReservoirSize bounds per-aggregate reservoirs.
const DefaultReservoirSize = 64

// BuildView scans the entire table once and materializes the view for the
// query of space. reservoir <= 0 selects DefaultReservoirSize.
func BuildView(space *olap.Space, reservoir int, rng *rand.Rand) (*View, error) {
	if space == nil || rng == nil {
		return nil, errors.New("sampling: space and rng are required")
	}
	if reservoir <= 0 {
		reservoir = DefaultReservoirSize
	}
	q := space.Query()
	var measure interface{ Float(int) float64 }
	if q.Fct != olap.Count {
		m, err := space.Dataset().Measure(q.Col)
		if err != nil {
			return nil, err
		}
		measure = m
	}
	v := &View{
		space:         space,
		counts:        make([]int64, space.Size()),
		reservoirs:    make([][]float64, space.Size()),
		ReservoirSize: reservoir,
	}
	n := space.Dataset().Table().NumRows()
	v.nrRows = int64(n)
	for row := 0; row < n; row++ {
		idx, ok := space.ClassifyRow(row)
		if !ok {
			continue
		}
		val := 1.0
		if measure != nil {
			val = measure.Float(row)
		}
		v.counts[idx]++
		// Standard reservoir sampling keeps a uniform sample per stratum.
		if len(v.reservoirs[idx]) < reservoir {
			if len(v.reservoirs[idx]) == 0 {
				v.nonEmpty = append(v.nonEmpty, idx)
			}
			v.reservoirs[idx] = append(v.reservoirs[idx], val)
		} else if j := rng.Int63n(v.counts[idx]); j < int64(reservoir) {
			v.reservoirs[idx][j] = val
		}
	}
	return v, nil
}

// Space returns the aggregate space the view was built for.
func (v *View) Space() *olap.Space { return v.space }

// Count returns the exact row count of aggregate a (a by-product of the
// build scan).
func (v *View) Count(a int) int64 { return v.counts[a] }

// SampleSize returns the reservoir fill of aggregate a.
func (v *View) SampleSize(a int) int { return len(v.reservoirs[a]) }

// NonEmpty returns the number of aggregates with data.
func (v *View) NonEmpty() int { return len(v.nonEmpty) }

// PickAggregate implements Estimator: averages need a non-empty reservoir;
// counts and sums can use any aggregate.
func (v *View) PickAggregate(rng *rand.Rand) (int, bool) {
	if v.space.Query().Fct == olap.Avg {
		if len(v.nonEmpty) == 0 {
			return 0, false
		}
		return v.nonEmpty[rng.Intn(len(v.nonEmpty))], true
	}
	if v.space.Size() == 0 {
		return 0, false
	}
	return rng.Intn(v.space.Size()), true
}

// Estimate implements Estimator. Counts are exact; averages use the
// reservoir mean; sums combine both.
func (v *View) Estimate(a int, rng *rand.Rand) (float64, bool) {
	switch v.space.Query().Fct {
	case olap.Count:
		return float64(v.counts[a]), true
	case olap.Sum:
		if len(v.reservoirs[a]) == 0 {
			return 0, true
		}
		return float64(v.counts[a]) * stats.Mean(v.reservoirs[a]), true
	case olap.Avg:
		if len(v.reservoirs[a]) == 0 {
			return 0, false
		}
		return stats.Mean(v.reservoirs[a]), true
	default:
		return 0, false
	}
}

// GrandEstimate estimates the whole-scope aggregate value from the view.
func (v *View) GrandEstimate() (float64, bool) {
	var count int64
	var weighted float64
	var sampled int64
	for a := range v.counts {
		count += v.counts[a]
		if len(v.reservoirs[a]) > 0 {
			weighted += float64(v.counts[a]) * stats.Mean(v.reservoirs[a])
			sampled += v.counts[a]
		}
	}
	switch v.space.Query().Fct {
	case olap.Count:
		return float64(count), true
	case olap.Sum:
		return weighted, true
	case olap.Avg:
		if sampled == 0 {
			return 0, false
		}
		return weighted / float64(sampled), true
	default:
		return 0, false
	}
}
