package sampling

import (
	"math"
	"testing"

	"repro/internal/olap"
)

func TestPooledConfidenceIntervalAvg(t *testing.T) {
	s := flightsSpace(t, olap.Avg)
	c, _ := NewCache(s)
	all := make([]int, s.Size())
	for i := range all {
		all[i] = i
	}
	if _, ok := c.PooledConfidenceInterval(all, 0.95); ok {
		t.Error("empty cache should have no pooled interval")
	}
	n := s.Dataset().Table().NumRows()
	insertRows(c, n)
	iv, ok := c.PooledConfidenceInterval(all, 0.95)
	if !ok {
		t.Fatal("pooled interval unavailable with full cache")
	}
	exact, _ := olap.EvaluateSpace(s)
	if !iv.Contains(exact.GrandValue()) {
		t.Errorf("pooled interval %+v should contain grand value %v", iv, exact.GrandValue())
	}
	// Pooling a subset gives an interval around that subset's mean.
	subset := all[:3]
	sub, ok := c.PooledConfidenceInterval(subset, 0.95)
	if !ok {
		t.Fatal("subset interval unavailable")
	}
	if sub.Width() <= 0 {
		t.Error("subset interval should have positive width")
	}
	// A narrower scope has fewer samples, so its interval is wider.
	if sub.Width() < iv.Width() {
		t.Errorf("subset interval width %v should be at least the grand width %v",
			sub.Width(), iv.Width())
	}
}

func TestPooledConfidenceIntervalCountAndSum(t *testing.T) {
	for _, fct := range []olap.AggFunc{olap.Count, olap.Sum} {
		s := flightsSpace(t, fct)
		c, _ := NewCache(s)
		all := make([]int, s.Size())
		for i := range all {
			all[i] = i
		}
		if _, ok := c.PooledConfidenceInterval(all, 0.95); ok {
			t.Errorf("%v: empty cache should have no interval", fct)
		}
		insertRows(c, 10000)
		iv, ok := c.PooledConfidenceInterval(all, 0.99)
		if !ok {
			t.Fatalf("%v: interval unavailable", fct)
		}
		exact, _ := olap.EvaluateSpace(s)
		if !iv.Contains(exact.GrandValue()) {
			t.Errorf("%v: interval %+v misses grand value %v", fct, iv, exact.GrandValue())
		}
	}
}

func TestPooledIntervalDegenerateZeroVariance(t *testing.T) {
	s := flightsSpace(t, olap.Avg)
	c, _ := NewCache(s)
	// Find rows with cancelled == 0 only, to build a zero-variance pool.
	measure, err := s.Dataset().Measure("cancelled")
	if err != nil {
		t.Fatal(err)
	}
	inserted := 0
	for row := 0; row < s.Dataset().Table().NumRows() && inserted < 5; row++ {
		if measure.Float(row) == 0 {
			c.InsertBatch([]int{row})
			inserted++
		}
	}
	all := make([]int, s.Size())
	for i := range all {
		all[i] = i
	}
	iv, ok := c.PooledConfidenceInterval(all, 0.95)
	if !ok {
		t.Fatal("interval unavailable")
	}
	if iv.Width() != 0 || iv.Center() != 0 {
		t.Errorf("zero-variance pool should give degenerate interval, got %+v", iv)
	}
	if math.IsNaN(iv.Lo) {
		t.Error("interval should not be NaN")
	}
}
