package experiments

import (
	"fmt"
	"io"

	"repro/internal/belief"
	"repro/internal/core"
	"repro/internal/olap"
)

// MetricRow scores one approach's speech under the quality metric of
// Definition 2.2 and three alternative belief-to-data distances.
type MetricRow struct {
	Approach string
	// Quality is the paper's metric (higher is better).
	Quality float64
	// LogLoss is the mean log belief density at the truth (higher = better).
	LogLoss float64
	// ExpAbsError is the listener's expected absolute error (lower = better).
	ExpAbsError float64
	// CRPS is the continuous ranked probability score (lower = better).
	CRPS float64
}

// MetricComparison scores the Table 5 speeches under all metrics,
// answering whether the paper's conclusions depend on its metric choice:
// every column must rank optimal ≈ holistic ahead of unmerged.
func MetricComparison(s *Setup) ([]MetricRow, error) {
	q, err := s.regionSeasonQuery()
	if err != nil {
		return nil, err
	}
	space, err := olap.NewSpace(s.Flights, q)
	if err != nil {
		return nil, err
	}
	result, err := olap.EvaluateSpace(space)
	if err != nil {
		return nil, err
	}
	model, err := belief.NewModel(space, belief.SigmaFromScale(result.GrandValue()))
	if err != nil {
		return nil, err
	}
	cfg := s.substrateConfig(s.Seed)
	var rows []MetricRow
	for _, v := range []core.Vocalizer{
		core.NewOptimal(s.Flights, q, cfg),
		core.NewHolistic(s.Flights, q, cfg),
		core.NewUnmerged(s.Flights, q, cfg),
	} {
		out, err := v.Vocalize()
		if err != nil {
			return nil, err
		}
		rows = append(rows, MetricRow{
			Approach:    v.Name(),
			Quality:     model.Quality(out.Speech, result),
			LogLoss:     model.LogLoss(out.Speech, result),
			ExpAbsError: model.ExpectedAbsError(out.Speech, result),
			CRPS:        model.CRPS(out.Speech, result),
		})
	}
	return rows, nil
}

// PrintMetricComparison writes the metric-robustness table.
func PrintMetricComparison(w io.Writer, rows []MetricRow) {
	fmt.Fprintln(w, "Metric robustness — Table 5 speeches under four belief-to-data distances")
	fmt.Fprintf(w, "%-10s %9s %10s %12s %10s\n", "approach", "quality↑", "logLoss↑", "expAbsErr↓", "CRPS↓")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %9.3f %10.2f %12.5f %10.5f\n",
			r.Approach, r.Quality, r.LogLoss, r.ExpAbsError, r.CRPS)
	}
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
