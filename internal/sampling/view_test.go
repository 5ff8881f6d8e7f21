package sampling

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/olap"
)

func TestBuildViewValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := BuildView(nil, 0, rng); err == nil {
		t.Error("nil space should fail")
	}
	s := flightsSpace(t, olap.Avg)
	if _, err := BuildView(s, 0, nil); err == nil {
		t.Error("nil rng should fail")
	}
	v, err := BuildView(s, 0, rng)
	if err != nil {
		t.Fatalf("BuildView: %v", err)
	}
	if v.cache.space != s {
		t.Error("view cache built over another space")
	}
}

// TestViewExactCounts checks that a view's cache read every row once: its
// per-aggregate counts are the exact evaluation's.
func TestViewExactCounts(t *testing.T) {
	s := flightsSpace(t, olap.Avg)
	v, err := BuildView(s, 16, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatalf("BuildView: %v", err)
	}
	countQ := s.Query()
	countQ.Fct = olap.Count
	countQ.Col = ""
	countSpace, err := olap.NewSpace(s.Dataset(), countQ)
	if err != nil {
		t.Fatalf("NewSpace: %v", err)
	}
	exact, err := olap.EvaluateSpace(countSpace)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if got, want := v.cache.NrRead(), int64(s.Dataset().Table().NumRows()); got != want {
		t.Errorf("view read %d rows, table has %d", got, want)
	}
	for a := 0; a < s.Size(); a++ {
		if got, want := v.cache.accs[a].Count(), int64(exact.Value(a)); got != want {
			t.Errorf("aggregate %d count = %d, want %d", a, got, want)
		}
	}
}

// near reports whether got equals want up to rounding.
func near(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
}

// checkViewMatchesExact builds a view over a space of fct and checks that it
// estimates every aggregate and the grand value as the exact evaluation does,
// up to rounding: the view has read every row.
func checkViewMatchesExact(t *testing.T, fct olap.AggFunc, seed int64) {
	t.Helper()
	s := flightsSpace(t, fct)
	exact, _ := olap.EvaluateSpace(s)
	rng := rand.New(rand.NewSource(seed))
	v, err := BuildView(s, 512, rng)
	if err != nil {
		t.Fatalf("%v: BuildView: %v", fct, err)
	}
	for a := 0; a < s.Size(); a++ {
		want := exact.Value(a)
		got, ok := v.cache.Estimate(a, rng)
		if math.IsNaN(want) {
			if ok {
				t.Errorf("%v: empty aggregate %d should have no average estimate", fct, a)
			}
			continue
		}
		if !ok || !near(got, want) {
			t.Errorf("%v aggregate %s: view %v (ok %v), exact %v", fct, s.AggregateName(a), got, ok, want)
		}
	}
	if grand, ok := v.cache.GrandEstimate(); !ok || !near(grand, exact.GrandValue()) {
		t.Errorf("%v grand: view %v (ok %v), exact %v", fct, grand, ok, exact.GrandValue())
	}
}

// TestViewEstimatesApproachExact checks that a view of an average query
// estimates every aggregate and the grand value as the exact evaluation does.
func TestViewEstimatesApproachExact(t *testing.T) {
	checkViewMatchesExact(t, olap.Avg, 4)
}

// TestViewCountAndSumModes checks the same of count and sum queries: a
// full-scan view scales no sample, so its counts and sums are exact.
func TestViewCountAndSumModes(t *testing.T) {
	for _, fct := range []olap.AggFunc{olap.Count, olap.Sum} {
		checkViewMatchesExact(t, fct, 5)
	}
}
