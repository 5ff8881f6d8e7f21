package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/userstudy"
)

// testSetup shares one small setup across the package tests.
var sharedSetup *Setup

func setup(t *testing.T) *Setup {
	t.Helper()
	if sharedSetup == nil {
		s, err := NewSetup(60000, 1)
		if err != nil {
			t.Fatalf("NewSetup: %v", err)
		}
		sharedSetup = s
	}
	return sharedSetup
}

func TestFlightsQuerySpecs(t *testing.T) {
	s := setup(t)
	for _, spec := range Figure3Queries {
		q, err := s.FlightsQuery(spec.Filter, spec.Dims)
		if err != nil {
			t.Errorf("spec %s,%s: %v", spec.Filter, spec.Dims, err)
			continue
		}
		if err := s.Flights.ValidateQuery(q); err != nil {
			t.Errorf("spec %s,%s invalid: %v", spec.Filter, spec.Dims, err)
		}
	}
	if _, err := s.FlightsQuery("X", "R"); err == nil {
		t.Error("unknown filter should fail")
	}
	if _, err := s.FlightsQuery("-", "Z"); err == nil {
		t.Error("unknown dimension should fail")
	}
}

// TestFigure3Shape asserts the published shape: optimal latency dominates
// everything, holistic stays fastest to first output and keeps most of
// optimal's quality, and unmerged quality trails holistic's.
func TestFigure3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure 3 in short mode")
	}
	s := setup(t)
	rows, err := Figure3(s)
	if err != nil {
		t.Fatalf("Figure3: %v", err)
	}
	if len(rows) != len(Figure3Queries)*3 {
		t.Fatalf("rows = %d, want %d", len(rows), len(Figure3Queries)*3)
	}
	sum := Summarize(rows)
	if sum.MeanLatency["holistic"] >= sum.MeanLatency["optimal"] {
		t.Errorf("holistic latency %v should beat optimal %v",
			sum.MeanLatency["holistic"], sum.MeanLatency["optimal"])
	}
	if sum.MeanLatency["unmerged"] < 400*time.Millisecond {
		t.Errorf("unmerged latency %v should sit at its 500 ms budget",
			sum.MeanLatency["unmerged"])
	}
	// Holistic keeps most of Optimal's quality (0.90 of it at these rows,
	// seed 1), and unmerged trails it.
	if sum.MeanQuality["holistic"] < 0.85*sum.MeanQuality["optimal"] {
		t.Errorf("holistic quality %v too far below optimal %v",
			sum.MeanQuality["holistic"], sum.MeanQuality["optimal"])
	}
	if sum.MeanQuality["unmerged"] >= sum.MeanQuality["holistic"] {
		t.Errorf("unmerged quality %v should trail holistic %v",
			sum.MeanQuality["unmerged"], sum.MeanQuality["holistic"])
	}
	// Optimal violates interactivity on the two 3-dimensional queries, and
	// what makes it slow there is work, not the machine: it scores more
	// candidate speeches on each of them than on any other query.
	scored := map[string]int64{}
	for _, r := range rows {
		if r.Approach == "optimal" {
			scored[r.Query] = r.SpeechesScored
		}
	}
	for _, slow := range []string{"N,DA", "W,RA"} {
		for q, n := range scored {
			if q != "N,DA" && q != "W,RA" && scored[slow] <= n {
				t.Errorf("optimal scored %d speeches on %s, not more than the %d on %s", scored[slow], slow, n, q)
			}
		}
	}
	var buf bytes.Buffer
	PrintFigure3(&buf, rows)
	if !strings.Contains(buf.String(), "Figure 3") {
		t.Error("printout malformed")
	}
}

// TestTable2AndPrint asserts Table 2's shape by share of consistent
// answers: a majority supports every hypothesis, Composition least and
// Normal (the Variance aspect) most.
func TestTable2AndPrint(t *testing.T) {
	s := setup(t)
	res := Table2(s)
	share := map[string]float64{}
	for _, aspect := range userstudy.AspectOrder {
		cnt := res.PerAspect[aspect]
		share[aspect] = float64(cnt.Consistent) / float64(cnt.Consistent+cnt.Inconsistent)
		if cnt.Consistent <= cnt.Inconsistent {
			t.Errorf("%s: %d consistent against %d, want a majority", aspect, cnt.Consistent, cnt.Inconsistent)
		}
	}
	for _, aspect := range userstudy.AspectOrder {
		if aspect != "Composition" && share[aspect] <= share["Composition"] {
			t.Errorf("%s share %.3f should exceed Composition's %.3f", aspect, share[aspect], share["Composition"])
		}
		if aspect != "Variance" && share[aspect] >= share["Variance"] {
			t.Errorf("%s share %.3f should trail Variance's %.3f", aspect, share[aspect], share["Variance"])
		}
	}
	var buf bytes.Buffer
	PrintTable2(&buf, res)
	PrintTable10(&buf, res)
	out := buf.String()
	for _, frag := range []string{"Table 2", "Symmetry", "Normal", "Table 10"} {
		if !strings.Contains(out, frag) {
			t.Errorf("printout missing %q", frag)
		}
	}
}

func TestTable5Speeches(t *testing.T) {
	s := setup(t)
	rows, err := Table5(s)
	if err != nil {
		t.Fatalf("Table5: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("approaches = %d, want 3", len(rows))
	}
	byName := map[string]SpeechComparison{}
	for _, r := range rows {
		byName[r.Approach] = r
		if r.Speech == "" {
			t.Errorf("%s produced empty speech", r.Approach)
		}
	}
	// Table 5's quality ordering: optimal ≈ holistic >> unmerged.
	if byName["holistic"].Quality < 0.5*byName["optimal"].Quality {
		t.Errorf("holistic quality %v too far below optimal %v",
			byName["holistic"].Quality, byName["optimal"].Quality)
	}
	if byName["unmerged"].Quality > byName["optimal"].Quality {
		t.Errorf("starved unmerged %v should not beat optimal %v",
			byName["unmerged"].Quality, byName["optimal"].Quality)
	}
	var buf bytes.Buffer
	PrintSpeeches(&buf, "Table 5", rows)
	if !strings.Contains(buf.String(), "cancellation probability") {
		t.Error("printout missing speech text")
	}
}

func TestTable6And14(t *testing.T) {
	s := setup(t)
	studies, err := Table6And14(s)
	if err != nil {
		t.Fatalf("Table6And14: %v", err)
	}
	if len(studies) != 3 {
		t.Fatalf("studies = %d, want 3", len(studies))
	}
	byName := map[string]EstimationStudy{}
	for _, st := range studies {
		byName[st.Approach] = st
		if len(st.Users) != 8 {
			t.Errorf("%s users = %d, want 8", st.Approach, len(st.Users))
		}
	}
	// Table 6 ordering: optimal and holistic beat unmerged on median error.
	if byName["optimal"].MedianAbsError >= byName["unmerged"].MedianAbsError {
		t.Errorf("optimal error %v should beat unmerged %v",
			byName["optimal"].MedianAbsError, byName["unmerged"].MedianAbsError)
	}
	if byName["holistic"].MedianAbsError >= byName["unmerged"].MedianAbsError {
		t.Errorf("holistic error %v should beat unmerged %v",
			byName["holistic"].MedianAbsError, byName["unmerged"].MedianAbsError)
	}
	// Table 14: good speeches must order result fields better than chance.
	// (The unmerged baseline's tendencies are luck-of-the-refinement — in
	// the paper it landed at 54%, and a wrong-magnitude speech can still
	// point the right way — so only the error ordering above is asserted
	// across approaches.)
	if byName["holistic"].TendencyAccuracy <= 0.5 {
		t.Errorf("holistic tendencies %v should beat chance", byName["holistic"].TendencyAccuracy)
	}
	if byName["optimal"].TendencyAccuracy <= 0.5 {
		t.Errorf("optimal tendencies %v should beat chance", byName["optimal"].TendencyAccuracy)
	}
	var buf bytes.Buffer
	PrintTable6And14(&buf, studies)
	if !strings.Contains(buf.String(), "Table 6") {
		t.Error("printout malformed")
	}
}

func TestTable7Facts(t *testing.T) {
	s := setup(t)
	facts, err := Table7(s)
	if err != nil {
		t.Fatalf("Table7: %v", err)
	}
	if len(facts) != 3 {
		t.Fatalf("facts = %d", len(facts))
	}
	var buf bytes.Buffer
	PrintTable7(&buf, facts)
	if !strings.Contains(buf.String(), "Winter") {
		t.Error("facts should mention the Winter effect")
	}
}

func TestTable8And9(t *testing.T) {
	if testing.Short() {
		t.Skip("exploratory study in short mode")
	}
	s := setup(t)
	studies, err := Table8And9(s, 4)
	if err != nil {
		t.Fatalf("Table8And9: %v", err)
	}
	if len(studies) != 2 {
		t.Fatalf("studies = %d, want 2", len(studies))
	}
	for _, st := range studies {
		// Table 8: on each dataset more sessions prefer this approach
		// (this+, this++) than the prior one (prior++, prior+).
		prefs := st.Result.Prefs
		if this, prior := prefs[3]+prefs[4], prefs[0]+prefs[1]; this <= prior {
			t.Errorf("%s: %d votes for this approach, not more than %d for prior (%v)",
				st.Dataset, this, prior, prefs)
		}
		if st.Result.Lengths.PriorAvg <= st.Result.Lengths.ThisAvg {
			t.Errorf("%s: prior avg %d should exceed this avg %d",
				st.Dataset, st.Result.Lengths.PriorAvg, st.Result.Lengths.ThisAvg)
		}
	}
	// Table 9's flights blow-up: prior max dwarfs ours by an order of
	// magnitude on the multi-dimensional dataset.
	fl := studies[1].Result.Lengths
	if fl.PriorMax < 5*fl.ThisMax {
		t.Errorf("flights prior max %d should dwarf this max %d", fl.PriorMax, fl.ThisMax)
	}
	var buf bytes.Buffer
	PrintTable8And9(&buf, studies)
	if !strings.Contains(buf.String(), "Table 8") {
		t.Error("printout malformed")
	}
}

func TestTable11Stats(t *testing.T) {
	s := setup(t)
	stats := Table11(s)
	if len(stats) != 2 {
		t.Fatalf("stats = %d", len(stats))
	}
	if stats[0].Rows != 320 {
		t.Errorf("salary rows = %d, want 320", stats[0].Rows)
	}
	if stats[1].Rows != 60000 {
		t.Errorf("flight rows = %d", stats[1].Rows)
	}
	var buf bytes.Buffer
	PrintTable11(&buf, stats)
	if !strings.Contains(buf.String(), "Table 11") {
		t.Error("printout malformed")
	}
}

func TestTable12MatchesPlantedData(t *testing.T) {
	s := setup(t)
	rows, err := Table12(s)
	if err != nil {
		t.Fatalf("Table12: %v", err)
	}
	if len(rows) != 20 {
		t.Fatalf("fields = %d, want 20", len(rows))
	}
	// Sorted descending; the top row must be NE/Winter as in the paper.
	if rows[0].Region != "the North East" || rows[0].Season != "Winter" {
		t.Errorf("top field = %s/%s, want the North East/Winter", rows[0].Region, rows[0].Season)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Cancellation > rows[i-1].Cancellation {
			t.Fatal("rows not sorted descending")
		}
	}
	var buf bytes.Buffer
	PrintTable12(&buf, rows)
	if !strings.Contains(buf.String(), "Table 12") {
		t.Error("printout malformed")
	}
}

// TestTable13Speeches asserts the oracle half of Table 13's shape: no
// sampled speech beats Optimal's. The other half, Holistic above Unmerged,
// does not hold at the test's 60 000 rows (EXPERIMENTS.md, Table 13).
func TestTable13Speeches(t *testing.T) {
	if testing.Short() {
		t.Skip("table 13 in short mode")
	}
	s := setup(t)
	rows, err := Table13(s)
	if err != nil {
		t.Fatalf("Table13: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("approaches = %d", len(rows))
	}
	quality := map[string]float64{}
	for _, r := range rows {
		quality[r.Approach] = r.Quality
	}
	for _, sampled := range []string{"holistic", "unmerged"} {
		if quality[sampled] > quality["optimal"] {
			t.Errorf("%s quality %.4f beats optimal's %.4f", sampled, quality[sampled], quality["optimal"])
		}
	}
	t.Logf("optimal %.4f, unmerged %.4f, holistic %.4f", quality["optimal"], quality["unmerged"], quality["holistic"])
}

func TestPriorOnFlights(t *testing.T) {
	s := setup(t)
	cmp, err := PriorOnFlights(s)
	if err != nil {
		t.Fatalf("PriorOnFlights: %v", err)
	}
	if cmp.SpeechLen <= 300 {
		t.Errorf("prior speech length %d should exceed our 300-char cap", cmp.SpeechLen)
	}
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations in short mode")
	}
	s := setup(t)

	uct, err := AblationUCTVsUniform(s)
	if err != nil {
		t.Fatalf("UCT ablation: %v", err)
	}
	if len(uct) != 2 {
		t.Fatal("UCT ablation should have two variants")
	}

	res, err := AblationResample(s)
	if err != nil {
		t.Fatalf("resample ablation: %v", err)
	}
	if len(res) != 4 {
		t.Fatalf("resample variants = %d", len(res))
	}
	// The running mean must beat the 10-sample resample on a 0/1 measure.
	var runningQ, resample10Q float64
	for _, r := range res {
		switch r.Variant {
		case "running-mean":
			runningQ = r.Quality
		case "resample-10":
			resample10Q = r.Quality
		}
	}
	if runningQ <= resample10Q {
		t.Errorf("running-mean quality %v should beat resample-10 %v", runningQ, resample10Q)
	}

	rel, err := AblationRelativeVsAbsolute(s)
	if err != nil {
		t.Fatalf("relative ablation: %v", err)
	}
	if len(rel) != 2 {
		t.Fatal("relative ablation should have two variants")
	}

	sig, err := AblationSigma(s)
	if err != nil {
		t.Fatalf("sigma ablation: %v", err)
	}
	if len(sig) != 4 {
		t.Fatalf("sigma variants = %d", len(sig))
	}

	frag, err := AblationFragments(s)
	if err != nil {
		t.Fatalf("fragments ablation: %v", err)
	}
	if len(frag) != 3 {
		t.Fatalf("fragment variants = %d", len(frag))
	}

	var buf bytes.Buffer
	PrintAblation(&buf, "UCT vs uniform", uct)
	if !strings.Contains(buf.String(), "quality") {
		t.Error("ablation printout malformed")
	}
}

func TestAblationPlanningBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("budget sweep in short mode")
	}
	s := setup(t)
	rows, err := AblationPlanningBudget(s)
	if err != nil {
		t.Fatalf("AblationPlanningBudget: %v", err)
	}
	if len(rows) != 5 {
		t.Fatalf("variants = %d", len(rows))
	}
	// The learning curve: the largest budget must beat the smallest.
	if rows[len(rows)-1].Quality <= rows[0].Quality {
		t.Errorf("5000 rounds (%v) should beat 10 rounds (%v)",
			rows[len(rows)-1].Quality, rows[0].Quality)
	}
}
