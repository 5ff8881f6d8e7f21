package sampling

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/olap"
)

func flightsSpace(t *testing.T, fct olap.AggFunc) *olap.Space {
	t.Helper()
	d, err := datagen.Flights(datagen.FlightsConfig{Rows: 20000, Seed: 11})
	if err != nil {
		t.Fatalf("Flights: %v", err)
	}
	q := olap.Query{
		Fct: fct, Col: "cancelled",
		GroupBy: []olap.GroupBy{
			{Hierarchy: d.HierarchyByName("start airport"), Level: 1},
			{Hierarchy: d.HierarchyByName("flight date"), Level: 1},
		},
	}
	if fct == olap.Count {
		q.Col = ""
	}
	s, err := olap.NewSpace(d, q)
	if err != nil {
		t.Fatalf("NewSpace: %v", err)
	}
	return s
}

// insertRows inserts rows 0..n-1 into c in one batch.
func insertRows(c *Cache, n int) {
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	c.InsertBatch(rows)
}

func TestCacheInsertAndSize(t *testing.T) {
	s := flightsSpace(t, olap.Avg)
	c, err := NewCache(s)
	if err != nil {
		t.Fatalf("NewCache: %v", err)
	}
	insertRows(c, 100)
	if c.NrRead() != 100 {
		t.Errorf("NrRead = %d, want 100", c.NrRead())
	}
	// Every flight row is in scope for an unfiltered query.
	if c.NrInScope() != 100 {
		t.Errorf("NrInScope = %d, want 100", c.NrInScope())
	}
	var total int
	for a := 0; a < s.Size(); a++ {
		total += c.Size(a)
	}
	if total != 100 {
		t.Errorf("sum of sizes = %d, want 100", total)
	}
	if c.NonEmpty() == 0 {
		t.Error("some aggregates should be non-empty")
	}
}

func TestCacheScopeFilter(t *testing.T) {
	d, err := datagen.Flights(datagen.FlightsConfig{Rows: 5000, Seed: 2})
	if err != nil {
		t.Fatalf("Flights: %v", err)
	}
	airport := d.HierarchyByName("start airport")
	ne := airport.FindMember("the North East")
	q := olap.Query{
		Fct: olap.Avg, Col: "cancelled",
		GroupBy: []olap.GroupBy{{Hierarchy: d.HierarchyByName("flight date"), Level: 1}},
	}
	q.Filters = append(q.Filters, ne)
	s, err := olap.NewSpace(d, q)
	if err != nil {
		t.Fatalf("NewSpace: %v", err)
	}
	c, err := NewCache(s)
	if err != nil {
		t.Fatalf("NewCache: %v", err)
	}
	insertRows(c, 5000)
	if c.NrRead() != 5000 {
		t.Errorf("NrRead = %d", c.NrRead())
	}
	if c.NrInScope() >= 5000 || c.NrInScope() == 0 {
		t.Errorf("in-scope = %d, expected strictly between 0 and 5000", c.NrInScope())
	}
}

func TestPickAggregateAvgRequiresData(t *testing.T) {
	s := flightsSpace(t, olap.Avg)
	c, _ := NewCache(s)
	rng := rand.New(rand.NewSource(3))
	if _, ok := c.PickAggregate(rng); ok {
		t.Error("empty cache should have no eligible aggregate for avg")
	}
	c.InsertBatch([]int{0})
	a, ok := c.PickAggregate(rng)
	if !ok {
		t.Fatal("expected eligible aggregate")
	}
	if c.Size(a) == 0 {
		t.Error("picked aggregate should have cached rows")
	}
}

func TestPickAggregateCountAllEligible(t *testing.T) {
	s := flightsSpace(t, olap.Count)
	c, _ := NewCache(s)
	rng := rand.New(rand.NewSource(3))
	if _, ok := c.PickAggregate(rng); ok {
		t.Error("count query should need at least one read")
	}
	c.InsertBatch([]int{0})
	// With one row read, any aggregate (even empty ones) is eligible.
	sawEmpty := false
	for i := 0; i < 200; i++ {
		a, ok := c.PickAggregate(rng)
		if !ok {
			t.Fatal("expected eligibility after a read")
		}
		if c.Size(a) == 0 {
			sawEmpty = true
		}
	}
	if !sawEmpty {
		t.Error("count queries should sample empty aggregates too")
	}
}

func TestEstimateUnbiasedness(t *testing.T) {
	s := flightsSpace(t, olap.Avg)
	exact, err := olap.EvaluateSpace(s)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	c, _ := NewCache(s)
	rng := rand.New(rand.NewSource(9))
	// Insert every row: estimates should be close to exact values.
	n := s.Dataset().Table().NumRows()
	insertRows(c, n)
	for a := 0; a < s.Size(); a++ {
		want := exact.Value(a)
		if math.IsNaN(want) {
			continue
		}
		got, ok := c.Estimate(a, rng)
		if !ok {
			t.Fatalf("estimate unavailable for populated aggregate %d", a)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("aggregate %s: estimate %v, exact %v", s.AggregateName(a), got, want)
		}
	}
}

func TestEstimateCountScaling(t *testing.T) {
	s := flightsSpace(t, olap.Count)
	exact, _ := olap.EvaluateSpace(s)
	c, _ := NewCache(s)
	rng := rand.New(rand.NewSource(4))
	n := s.Dataset().Table().NumRows()
	insertRows(c, n)
	for a := 0; a < s.Size(); a++ {
		got, ok := c.Estimate(a, rng)
		if !ok {
			t.Fatal("count estimate should always be available after reads")
		}
		if math.Abs(got-exact.Value(a)) > 1e-9 {
			t.Errorf("aggregate %d: count estimate %v, exact %v", a, got, exact.Value(a))
		}
	}
}

func TestEstimateSum(t *testing.T) {
	s := flightsSpace(t, olap.Sum)
	exact, _ := olap.EvaluateSpace(s)
	c, _ := NewCache(s)
	rng := rand.New(rand.NewSource(4))
	n := s.Dataset().Table().NumRows()
	insertRows(c, n)
	for a := 0; a < s.Size(); a++ {
		got, ok := c.Estimate(a, rng)
		if !ok {
			t.Fatal("sum estimate should be available")
		}
		if math.Abs(got-exact.Value(a)) > math.Abs(exact.Value(a))*1e-9+1e-9 {
			t.Errorf("aggregate %d: sum estimate %v, exact %v", a, got, exact.Value(a))
		}
	}
}

func TestEstimateUnavailableCases(t *testing.T) {
	s := flightsSpace(t, olap.Avg)
	c, _ := NewCache(s)
	rng := rand.New(rand.NewSource(5))
	if _, ok := c.Estimate(0, rng); ok {
		t.Error("no reads: estimate should be unavailable")
	}
	if _, ok := c.GrandEstimate(); ok {
		t.Error("no reads: grand estimate should be unavailable")
	}
}

func TestGrandEstimateMatchesExact(t *testing.T) {
	for _, fct := range []olap.AggFunc{olap.Avg, olap.Count, olap.Sum} {
		s := flightsSpace(t, fct)
		exact, _ := olap.EvaluateSpace(s)
		c, _ := NewCache(s)
		n := s.Dataset().Table().NumRows()
		insertRows(c, n)
		got, ok := c.GrandEstimate()
		if !ok {
			t.Fatalf("%v: grand estimate unavailable", fct)
		}
		want := exact.GrandValue()
		if math.Abs(got-want) > math.Abs(want)*1e-9 {
			t.Errorf("%v: grand estimate %v, exact %v", fct, got, want)
		}
	}
}

func TestGrandEstimateConvergesFromSample(t *testing.T) {
	s := flightsSpace(t, olap.Avg)
	exact, _ := olap.EvaluateSpace(s)
	c, _ := NewCache(s)
	insertRows(c, 4000)
	got, ok := c.GrandEstimate()
	if !ok {
		t.Fatal("grand estimate unavailable")
	}
	want := exact.GrandValue()
	if math.Abs(got-want) > 0.01 {
		t.Errorf("grand estimate %v too far from exact %v", got, want)
	}
}

func TestConfidenceIntervalAvg(t *testing.T) {
	s := flightsSpace(t, olap.Avg)
	c, _ := NewCache(s)
	if _, ok := c.ConfidenceInterval(0, 0.95); ok {
		t.Error("empty aggregate should have no interval")
	}
	n := s.Dataset().Table().NumRows()
	insertRows(c, n)
	exact, _ := olap.EvaluateSpace(s)
	covered := 0
	defined := 0
	for a := 0; a < s.Size(); a++ {
		want := exact.Value(a)
		if math.IsNaN(want) {
			continue
		}
		iv, ok := c.ConfidenceInterval(a, 0.95)
		if !ok {
			continue
		}
		defined++
		if iv.Contains(want) {
			covered++
		}
	}
	if defined == 0 {
		t.Fatal("no intervals computed")
	}
	// With full data the interval is centered on the exact mean.
	if covered != defined {
		t.Errorf("full-data intervals should cover exact values: %d/%d", covered, defined)
	}
}

func TestConfidenceIntervalCountAndSum(t *testing.T) {
	for _, fct := range []olap.AggFunc{olap.Count, olap.Sum} {
		s := flightsSpace(t, fct)
		c, _ := NewCache(s)
		if _, ok := c.ConfidenceInterval(0, 0.95); ok {
			t.Errorf("%v: empty cache should have no interval", fct)
		}
		insertRows(c, 8000)
		exact, _ := olap.EvaluateSpace(s)
		hits, total := 0, 0
		for a := 0; a < s.Size(); a++ {
			iv, ok := c.ConfidenceInterval(a, 0.99)
			if !ok {
				continue
			}
			total++
			if iv.Contains(exact.Value(a)) {
				hits++
			}
		}
		if total == 0 {
			t.Fatalf("%v: no intervals", fct)
		}
		if float64(hits)/float64(total) < 0.7 {
			t.Errorf("%v: only %d/%d intervals cover the exact value", fct, hits, total)
		}
	}
}
