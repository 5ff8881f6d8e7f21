package userstudy

import (
	"testing"

	"repro/internal/belief"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/olap"
	"repro/internal/speech"
	"repro/internal/voice"
)

type estEnv struct {
	dataset *olap.Dataset
	query   olap.Query
	model   *belief.Model
	result  *olap.Result
}

func newEstEnv(t *testing.T) *estEnv {
	t.Helper()
	d, err := datagen.Flights(datagen.FlightsConfig{Rows: 30000, Seed: 101})
	if err != nil {
		t.Fatalf("Flights: %v", err)
	}
	q := olap.Query{
		Fct: olap.Avg, Col: "cancelled",
		ColDescription: "average cancellation probability",
		GroupBy: []olap.GroupBy{
			{Hierarchy: d.HierarchyByName("start airport"), Level: 1},
			{Hierarchy: d.HierarchyByName("flight date"), Level: 1},
		},
	}
	space, err := olap.NewSpace(d, q)
	if err != nil {
		t.Fatalf("NewSpace: %v", err)
	}
	result, err := olap.EvaluateSpace(space)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	model, err := belief.NewModel(space, belief.SigmaFromScale(result.GrandValue()))
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	return &estEnv{dataset: d, query: q, model: model, result: result}
}

func (e *estEnv) vocalize(t *testing.T, v core.Vocalizer) *speech.Speech {
	t.Helper()
	out, err := v.Vocalize()
	if err != nil {
		t.Fatalf("%s: %v", v.Name(), err)
	}
	return out.Speech
}

func estCfg(seed int64) core.Config {
	return core.Config{
		Percents:             []int{50, 100},
		Seed:                 seed,
		Clock:                voice.NewSimClock(),
		MaxRoundsPerSentence: 1500,
	}
}

func TestRunEstimationBasics(t *testing.T) {
	e := newEstEnv(t)
	sp := e.vocalize(t, core.NewOptimal(e.dataset, e.query, estCfg(1)))
	res := RunEstimation(e.model, e.result, "optimal", sp, EstimationConfig{Seed: 5})
	if len(res.Users) != 8 {
		t.Fatalf("users = %d, want 8", len(res.Users))
	}
	for _, u := range res.Users {
		if u.AbsError < 0 {
			t.Error("negative absolute error")
		}
		if u.TendencyAccuracy < 0 || u.TendencyAccuracy > 1 {
			t.Errorf("tendency accuracy %v out of range", u.TendencyAccuracy)
		}
	}
	if res.MedianAbsError() <= 0 {
		t.Error("median error should be positive with noise")
	}
}

// TestEstimationRanksApproaches reproduces the Table 6 ordering: optimal
// and holistic speeches yield far smaller user errors than a deliberately
// wrong speech (standing in for the starved unmerged baseline).
func TestEstimationRanksApproaches(t *testing.T) {
	e := newEstEnv(t)
	cfg := EstimationConfig{Seed: 6}

	optSpeech := e.vocalize(t, core.NewOptimal(e.dataset, e.query, estCfg(2)))
	holSpeech := e.vocalize(t, core.NewHolistic(e.dataset, e.query, estCfg(2)))
	opt := RunEstimation(e.model, e.result, "optimal", optSpeech, cfg)
	hol := RunEstimation(e.model, e.result, "holistic", holSpeech, cfg)

	// A wrong baseline mimics the unmerged failure mode in Table 5
	// ("Over ten percent" for a two-percent average).
	wrong := optSpeech.Clone()
	wb := *optSpeech.Baseline
	wb.Value *= 8
	wrong.Baseline = &wb
	unm := RunEstimation(e.model, e.result, "unmerged", wrong, cfg)

	if opt.MedianAbsError() >= unm.MedianAbsError() {
		t.Errorf("optimal error %v should beat wrong-speech error %v",
			opt.MedianAbsError(), unm.MedianAbsError())
	}
	if hol.MedianAbsError() >= unm.MedianAbsError() {
		t.Errorf("holistic error %v should beat wrong-speech error %v",
			hol.MedianAbsError(), unm.MedianAbsError())
	}
	if unm.MeanTendencyAccuracy() > opt.MeanTendencyAccuracy() {
		t.Errorf("wrong speech tendency %v should not beat optimal %v",
			unm.MeanTendencyAccuracy(), opt.MeanTendencyAccuracy())
	}
}

// TestMisreadUsersAreOutliers reproduces the users 1 and 8 phenomenon:
// respondents who hear "increase TO 100 percent" have errors an order of
// magnitude above the rest.
func TestMisreadUsersAreOutliers(t *testing.T) {
	e := newEstEnv(t)
	sp := e.vocalize(t, core.NewOptimal(e.dataset, e.query, estCfg(3)))
	if len(sp.Refinements) == 0 {
		t.Skip("optimal speech has no refinements to misread")
	}
	res := RunEstimation(e.model, e.result, "optimal", sp, EstimationConfig{
		Users: 8, MisreadUsers: 2, Seed: 7,
	})
	var misreadMax, readMax float64
	for _, u := range res.Users {
		if u.Misread && u.AbsError > misreadMax {
			misreadMax = u.AbsError
		}
		if !u.Misread && u.AbsError > readMax {
			readMax = u.AbsError
		}
	}
	if misreadMax <= readMax*3 {
		t.Errorf("misread error %v should dwarf normal error %v", misreadMax, readMax)
	}
	// Median is robust to the two outliers.
	if res.MedianAbsError() > readMax*2 {
		t.Error("median should be robust to misread outliers")
	}
}

func TestEstimationDeterministic(t *testing.T) {
	e := newEstEnv(t)
	sp := e.vocalize(t, core.NewOptimal(e.dataset, e.query, estCfg(4)))
	cfg := EstimationConfig{Seed: 9}
	a := RunEstimation(e.model, e.result, "x", sp, cfg)
	b := RunEstimation(e.model, e.result, "x", sp, cfg)
	for i := range a.Users {
		if a.Users[i] != b.Users[i] {
			t.Fatal("same seed should reproduce user scores")
		}
	}
}

func TestTendencyAccuracy(t *testing.T) {
	if got := tendencyAccuracy([]float64{1, 2, 3}, []float64{10, 20, 30}); got != 1 {
		t.Errorf("perfectly ordered = %v, want 1", got)
	}
	if got := tendencyAccuracy([]float64{3, 2, 1}, []float64{10, 20, 30}); got != 0 {
		t.Errorf("perfectly inverted = %v, want 0", got)
	}
	if got := tendencyAccuracy([]float64{5}, []float64{1}); got != 1 {
		t.Errorf("single field = %v, want 1", got)
	}
}
