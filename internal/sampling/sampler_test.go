package sampling

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/olap"
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
}

func TestSamplerExhaustion(t *testing.T) {
	s := flightsSpace(t, olap.Avg)
	rng := rand.New(rand.NewSource(6))
	smp, _ := NewSampler(s, rng)
	n := s.Dataset().Table().NumRows()
	smp.ReadRows(500)
	if read := smp.ReadRows(n + 1000); read != n-500 {
		t.Errorf("read %d rows, want the remaining %d", read, n-500)
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
		if int(c.accs[a].Count()) < 200 {
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
