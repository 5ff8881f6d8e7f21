package experiments

import (
	"fmt"

	"repro/internal/core"
)

// AblationRow is one configuration's quality (and latency surrogate) in an
// ablation sweep.
type AblationRow struct {
	Variant string
	Quality float64
}

// runHolisticQuality vocalizes the region-by-season query with the given
// config and returns exact quality, averaged over a few seeds to smooth
// sampling noise.
func (s *Setup) runHolisticQuality(mutate func(*core.Config)) (float64, error) {
	q, err := s.regionSeasonQuery()
	if err != nil {
		return 0, err
	}
	const runs = 3
	var sum float64
	for i := 0; i < runs; i++ {
		cfg := s.simConfig(s.Seed + int64(100+i))
		if mutate != nil {
			mutate(&cfg)
		}
		out, err := core.NewHolistic(s.Flights, q, cfg).Vocalize()
		if err != nil {
			return 0, fmt.Errorf("experiments: ablation: %w", err)
		}
		quality, err := core.ExactQuality(s.Flights, q, out, cfg)
		if err != nil {
			return 0, err
		}
		sum += quality
	}
	return sum / runs, nil
}

// AblationUCTVsUniform compares UCT child selection against uniform random
// tree sampling under the same sample budget — the exploitation half of
// the paper's prioritization argument.
func AblationUCTVsUniform(s *Setup) ([]AblationRow, error) {
	uct, err := s.runHolisticQuality(nil)
	if err != nil {
		return nil, err
	}
	uniform, err := s.runHolisticQuality(func(c *core.Config) { c.UniformTreePolicy = true })
	if err != nil {
		return nil, err
	}
	return []AblationRow{
		{Variant: "UCT", Quality: uct},
		{Variant: "uniform", Quality: uniform},
	}, nil
}

// AblationResample compares the running-mean estimator against the paper's
// literal fixed-size resampling at several sizes. Small resamples quantize
// Bernoulli measures and destroy reward discrimination.
func AblationResample(s *Setup) ([]AblationRow, error) {
	rows := []AblationRow{}
	running, err := s.runHolisticQuality(nil)
	if err != nil {
		return nil, err
	}
	rows = append(rows, AblationRow{Variant: "running-mean", Quality: running})
	for _, size := range []int{10, 100, 1000} {
		size := size
		q, err := s.runHolisticQuality(func(c *core.Config) { c.ResampleSize = size })
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{Variant: fmt.Sprintf("resample-%d", size), Quality: q})
	}
	return rows, nil
}

// AblationRelativeVsAbsolute compares the relative-refinement grammar
// against a disjoint-scope (absolute-claim) restriction; the restricted
// grammar cannot layer overlapping claims (Example 3.2).
func AblationRelativeVsAbsolute(s *Setup) ([]AblationRow, error) {
	relative, err := s.runHolisticQuality(nil)
	if err != nil {
		return nil, err
	}
	absolute, err := s.runHolisticQuality(func(c *core.Config) { c.DisjointScopes = true })
	if err != nil {
		return nil, err
	}
	return []AblationRow{
		{Variant: "relative", Quality: relative},
		{Variant: "absolute (disjoint scopes)", Quality: absolute},
	}, nil
}

// AblationSigma sweeps the belief-model σ as a fraction of the grand mean
// (the paper fixes 50%).
func AblationSigma(s *Setup) ([]AblationRow, error) {
	q, err := s.regionSeasonQuery()
	if err != nil {
		return nil, err
	}
	exact, err := evaluateExact(s.Flights, q)
	if err != nil {
		return nil, err
	}
	grand := exact.GrandValue()
	var rows []AblationRow
	for _, frac := range []float64{0.25, 0.5, 1.0, 2.0} {
		frac := frac
		quality, err := s.runHolisticQuality(func(c *core.Config) { c.Sigma = grand * frac })
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Variant: fmt.Sprintf("sigma=%.2fx mean", frac),
			Quality: quality,
		})
	}
	return rows, nil
}

// AblationFragments sweeps the refinement budget k, quantifying what each
// extra sentence buys.
func AblationFragments(s *Setup) ([]AblationRow, error) {
	var rows []AblationRow
	for _, k := range []int{1, 2, 3} {
		k := k
		quality, err := s.runHolisticQuality(func(c *core.Config) {
			c.Prefs.MaxChars = 300 + 150*k
			c.Prefs.MaxFragments = k
			c.Prefs.SigDigits = 1
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Variant: fmt.Sprintf("k=%d refinements", k),
			Quality: quality,
		})
	}
	return rows, nil
}

// AblationPlanningBudget sweeps the planning rounds available per sentence
// — the learning curve behind the pipelining argument: more overlap means
// more rounds means better speeches, saturating once estimates converge.
func AblationPlanningBudget(s *Setup) ([]AblationRow, error) {
	var rows []AblationRow
	for _, rounds := range []int{10, 50, 200, 1000, 5000} {
		rounds := rounds
		quality, err := s.runHolisticQuality(func(c *core.Config) {
			c.MaxRoundsPerSentence = rounds
			c.MinRounds = rounds
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Variant: fmt.Sprintf("%d rounds/sentence", rounds),
			Quality: quality,
		})
	}
	return rows, nil
}
