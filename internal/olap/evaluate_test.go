package olap

import (
	"math"
	"testing"

	"repro/internal/dimension"
)

func TestEvaluateAverages(t *testing.T) {
	f := newFixture(t)
	r, err := Evaluate(f.dataset, f.regionSeasonQuery())
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	s := r.Space()
	want := map[string]float64{
		"the North East / Winter": 2.0 / 3,
		"the North East / Summer": 0.5,
		"the Midwest / Winter":    0.5,
		"the Midwest / Summer":    0,
		"the West / Winter":       1,
		"the West / Summer":       0,
	}
	for i := 0; i < s.Size(); i++ {
		name := s.AggregateName(i)
		w, ok := want[name]
		if !ok {
			t.Fatalf("unexpected aggregate %q", name)
		}
		if got := r.Value(i); math.Abs(got-w) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, got, w)
		}
	}
}

func TestEvaluateCountAndSum(t *testing.T) {
	f := newFixture(t)
	q := f.regionSeasonQuery()
	q.Fct = Count
	r, err := Evaluate(f.dataset, q)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	var total float64
	for i := 0; i < r.Space().Size(); i++ {
		total += r.Value(i)
	}
	if total != float64(len(fixtureRows)) {
		t.Errorf("counts sum to %v, want %d", total, len(fixtureRows))
	}
	if r.GrandValue() != float64(len(fixtureRows)) {
		t.Errorf("grand count = %v", r.GrandValue())
	}

	q.Fct = Sum
	r, err = Evaluate(f.dataset, q)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	var cancelled float64
	for _, row := range fixtureRows {
		cancelled += row.cancelled
	}
	if r.GrandValue() != cancelled {
		t.Errorf("grand sum = %v, want %v", r.GrandValue(), cancelled)
	}
}

func TestEvaluateWithFilter(t *testing.T) {
	f := newFixture(t)
	q := Query{
		Fct: Avg, Col: "cancelled",
		Filters: []*dimension.Member{f.airport.FindMember("the North East")},
		GroupBy: []GroupBy{{Hierarchy: f.date, Level: 1}},
	}
	r, err := Evaluate(f.dataset, q)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	s := r.Space()
	if s.Size() != 2 {
		t.Fatalf("size = %d, want 2", s.Size())
	}
	for i := 0; i < 2; i++ {
		name := s.AggregateName(i)
		got := r.Value(i)
		switch name {
		case "Winter":
			if math.Abs(got-2.0/3) > 1e-12 {
				t.Errorf("NE Winter = %v, want 2/3", got)
			}
		case "Summer":
			if math.Abs(got-0.5) > 1e-12 {
				t.Errorf("NE Summer = %v, want 0.5", got)
			}
		default:
			t.Errorf("unexpected aggregate %q", name)
		}
	}
}

func TestEmptyAggregateIsNaN(t *testing.T) {
	f := newFixture(t)
	// Group by city x season: Los Angeles has no Summer=August rows but
	// has July; pick New York City / Winter? NYC has January only.
	// Construct a finer query where some cells are empty:
	q := Query{
		Fct: Avg, Col: "cancelled",
		GroupBy: []GroupBy{
			{Hierarchy: f.airport, Level: 2},
			{Hierarchy: f.date, Level: 2},
		},
	}
	r, err := Evaluate(f.dataset, q)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	sawNaN := false
	for i := 0; i < r.Space().Size(); i++ {
		if math.IsNaN(r.Value(i)) {
			sawNaN = true
			if r.counts[i] != 0 {
				t.Error("NaN value with nonzero count")
			}
		}
	}
	if !sawNaN {
		t.Error("expected at least one empty aggregate in 5x4 city/month grid")
	}
}

func TestValuesAndGrandValueAvg(t *testing.T) {
	f := newFixture(t)
	r, _ := Evaluate(f.dataset, f.regionSeasonQuery())
	vals := r.Values()
	if len(vals) != 6 {
		t.Fatalf("len(values) = %d", len(vals))
	}
	var cancelled float64
	for _, row := range fixtureRows {
		cancelled += row.cancelled
	}
	want := cancelled / float64(len(fixtureRows))
	if math.Abs(r.GrandValue()-want) > 1e-12 {
		t.Errorf("grand average = %v, want %v", r.GrandValue(), want)
	}
}
