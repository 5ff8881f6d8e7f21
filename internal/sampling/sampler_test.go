package sampling

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/faults"
	"repro/internal/olap"
	"repro/internal/table"
)

func TestSamplerReadRows(t *testing.T) {
	s := flightsSpace(t, olap.Avg)
	rng := rand.New(rand.NewSource(6))
	smp, err := NewSampler(s, rng)
	if err != nil {
		t.Fatalf("NewSampler: %v", err)
	}
	if got := smp.ReadRows(500); got != 500 {
		t.Errorf("read %d rows, want 500", got)
	}
	if smp.Cache().NrRead() != 500 {
		t.Errorf("cache NrRead = %d", smp.Cache().NrRead())
	}
	if smp.Exhausted() {
		t.Error("sampler should not be exhausted after 500 of 20000 rows")
	}
}

func TestSamplerExhaustion(t *testing.T) {
	s := flightsSpace(t, olap.Avg)
	rng := rand.New(rand.NewSource(6))
	smp, _ := NewSampler(s, rng)
	n := s.Dataset().Table().NumRows()
	read := smp.ReadRows(n + 1000)
	if read != n {
		t.Errorf("read %d rows, want %d", read, n)
	}
	if !smp.Exhausted() {
		t.Error("sampler should be exhausted")
	}
	if smp.ReadRows(10) != 0 {
		t.Error("exhausted sampler should read nothing")
	}
}

func TestSamplerEstimateConvergence(t *testing.T) {
	s := flightsSpace(t, olap.Avg)
	exact, _ := olap.EvaluateSpace(s)
	rng := rand.New(rand.NewSource(13))
	smp, _ := NewSampler(s, rng)
	smp.ReadRows(10000)
	c := smp.Cache()
	// Cells with hundreds of samples should estimate within a few tenths
	// of a percentage point of cancellation probability.
	checked := 0
	for a := 0; a < s.Size(); a++ {
		if c.Size(a) < 200 {
			continue
		}
		got, ok := c.Estimate(a, rng)
		if !ok {
			t.Fatalf("estimate for populated aggregate %d unavailable", a)
		}
		want := exact.Value(a)
		if math.Abs(got-want) > 0.02 {
			t.Errorf("aggregate %s: estimate %.4f, exact %.4f", s.AggregateName(a), got, want)
		}
		checked++
	}
	if checked == 0 {
		t.Error("expected populated aggregates after 10000 reads")
	}
}

// A wrapped scanner is still asked how much is left: Exhausted goes through
// the optional Remaining method, not through the concrete scanner type.
func TestSamplerExhaustionThroughWrapper(t *testing.T) {
	s := flightsSpace(t, olap.Avg)
	tab := s.Dataset().Table()
	inner := table.NewRandomScanner(tab, rand.New(rand.NewSource(6)))
	smp, err := NewSamplerWithScanner(s, &faults.SlowScanner{Inner: inner})
	if err != nil {
		t.Fatal(err)
	}
	if smp.ReadRows(500); smp.Exhausted() {
		t.Error("exhausted after 500 rows")
	}
	if read := smp.ReadRows(tab.NumRows()); read != tab.NumRows()-500 || !smp.Exhausted() {
		t.Errorf("read %d more rows, exhausted = %v; want the rest of the table and true", read, smp.Exhausted())
	}
	// A stream that cannot say how much is left is never called exhausted.
	smp, _ = NewSamplerWithScanner(s, &nextOnly{inner})
	inner.Reset()
	smp.ReadRows(tab.NumRows())
	if smp.Exhausted() {
		t.Error("a scanner without Remaining reported exhausted")
	}
}

// nextOnly hides every optional method of a scanner.
type nextOnly struct{ table.Scanner }
