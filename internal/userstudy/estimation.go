package userstudy

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/belief"
	"repro/internal/olap"
	"repro/internal/speech"
	"repro/internal/stats"
)

// EstimationConfig parameterizes the simulated estimation study (the AMT
// study behind Tables 6 and 14: users listen to a speech and estimate
// every result field).
type EstimationConfig struct {
	// Users is the number of simulated respondents (paper: 8 after
	// removing a duplicate submission).
	Users int
	// MisreadUsers is how many respondents misunderstand relative changes
	// as absolute ("values increase BY 100 percent" heard as "increase TO
	// 100 percent") — the paper attributes users 1 and 8's outliers to
	// exactly this.
	MisreadUsers int
	// NoiseFrac scales per-estimate recall noise relative to the belief
	// model's σ.
	NoiseFrac float64
	// Seed drives the simulation.
	Seed int64
}

// normalize fills defaults matching the paper's study.
func (c EstimationConfig) normalize() EstimationConfig {
	if c.Users <= 0 {
		c.Users = 8
	}
	if c.MisreadUsers < 0 || c.MisreadUsers > c.Users {
		c.MisreadUsers = 0
	}
	if c.NoiseFrac <= 0 {
		c.NoiseFrac = 0.15
	}
	return c
}

// UserScore reports one simulated user's performance for one speech.
type UserScore struct {
	// AbsError is the mean absolute estimation error over all result
	// fields, in the measure's units (multiplied by 100 for probability
	// measures this matches Table 6's percent columns).
	AbsError float64
	// TendencyAccuracy is the fraction of result-field pairs whose
	// relative order the user's estimates preserve (Table 14).
	TendencyAccuracy float64
	// Misread marks users applying the increase-TO misreading.
	Misread bool
}

// EstimationResult reports the study for one speech (one approach).
type EstimationResult struct {
	Users []UserScore
}

// MedianAbsError returns the median per-user absolute error.
func (r EstimationResult) MedianAbsError() float64 {
	xs := make([]float64, len(r.Users))
	for i, u := range r.Users {
		xs[i] = u.AbsError
	}
	return stats.Median(xs)
}

// MeanTendencyAccuracy averages tendency accuracy over users.
func (r EstimationResult) MeanTendencyAccuracy() float64 {
	var sum float64
	for _, u := range r.Users {
		sum += u.TendencyAccuracy
	}
	if len(r.Users) == 0 {
		return 0
	}
	return sum / float64(len(r.Users))
}

// RunEstimation simulates users estimating every result field after
// hearing sp, scored against the exact result. Respondents form estimates
// from the belief model's means (the pilot study showed users do apply
// those semantics), perturbed by recall noise; misreading users replace
// every refinement's relative change with the absolute value they thought
// they heard.
func RunEstimation(model *belief.Model, result *olap.Result, sp *speech.Speech, cfg EstimationConfig) EstimationResult {
	cfg = cfg.normalize()
	rng := rand.New(rand.NewSource(cfg.Seed))
	space := model.Space()

	actual := make([]float64, 0, space.Size())
	aggs := make([]int, 0, space.Size())
	for a := 0; a < space.Size(); a++ {
		v := result.Value(a)
		if math.IsNaN(v) {
			continue
		}
		actual = append(actual, v)
		aggs = append(aggs, a)
	}

	var res EstimationResult
	for u := 0; u < cfg.Users; u++ {
		misread := u < cfg.MisreadUsers
		var absSum float64
		est := make([]float64, len(aggs))
		for i, a := range aggs {
			var mean float64
			if misread {
				mean = misreadMean(model, sp, a)
			} else {
				mean = model.Mean(sp, a)
			}
			noisy := mean + rng.NormFloat64()*cfg.NoiseFrac*model.Sigma()
			if noisy < 0 {
				noisy = 0
			}
			est[i] = noisy
			absSum += math.Abs(noisy - actual[i])
		}
		score := UserScore{
			AbsError:         absSum / float64(len(aggs)),
			TendencyAccuracy: tendencyAccuracy(est, actual),
			Misread:          misread,
		}
		res.Users = append(res.Users, score)
	}
	// The paper's tables list users in submission order; sorting by error
	// keeps the output stable for reporting without changing statistics.
	sort.SliceStable(res.Users, func(i, j int) bool {
		return res.Users[i].Misread && !res.Users[j].Misread
	})
	return res
}

// misreadMean applies the "increase TO x percent" misunderstanding: an
// in-scope aggregate is believed to sit at the absolute percentage rather
// than shifted by it; out-of-scope aggregates keep the baseline.
func misreadMean(model *belief.Model, sp *speech.Speech, agg int) float64 {
	if sp.Baseline == nil {
		return 0
	}
	mean := sp.Baseline.Value
	for _, r := range sp.Refinements {
		if model.Space().InScope(agg, r.Preds) {
			mean = float64(r.Percent) / 100
		}
	}
	return mean
}

// tendencyAccuracy counts correctly ordered pairs following the paper's
// definition: a pair is correct when (e1 < e2 and v1 < v2) or (e1 >= e2
// and v1 >= v2).
func tendencyAccuracy(est, actual []float64) float64 {
	if len(est) < 2 {
		return 1
	}
	correct, total := 0, 0
	for i := 0; i < len(est); i++ {
		for j := i + 1; j < len(est); j++ {
			total++
			if (est[i] < est[j]) == (actual[i] < actual[j]) {
				correct++
			}
		}
	}
	return float64(correct) / float64(total)
}
