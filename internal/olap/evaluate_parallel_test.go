package olap

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/dimension"
	"repro/internal/table"
)

// bigFixture builds a dataset large enough (several evalChunkRows) that
// EvaluateSpaceWorkers actually shards the scan.
func bigFixture(t testing.TB, rows int) *fixture {
	t.Helper()
	airport := dimension.MustNewHierarchy("start airport", "city", "flights starting from", "any airport",
		[]string{"region", "city"})
	airport.MustAddPath("the North East", "Boston")
	airport.MustAddPath("the North East", "New York City")
	airport.MustAddPath("the Midwest", "Chicago")
	airport.MustAddPath("the Midwest", "Detroit")
	airport.MustAddPath("the West", "Los Angeles")
	date := dimension.MustNewHierarchy("flight date", "month", "flights scheduled in", "any date",
		[]string{"season", "month"})
	date.MustAddPath("Winter", "January")
	date.MustAddPath("Winter", "February")
	date.MustAddPath("Summer", "July")
	date.MustAddPath("Summer", "August")

	cities := []string{"Boston", "New York City", "Chicago", "Detroit", "Los Angeles"}
	months := []string{"January", "February", "July", "August"}
	rng := rand.New(rand.NewSource(17))
	city := table.NewStringColumn("city")
	month := table.NewStringColumn("month")
	cancelled := table.NewFloat64Column("cancelled")
	for i := 0; i < rows; i++ {
		city.Append(cities[rng.Intn(len(cities))])
		month.Append(months[rng.Intn(len(months))])
		// A non-dyadic measure so sum reassociation is actually visible
		// in floating point, not masked by exactly representable values.
		cancelled.Append(rng.Float64() / 3)
	}
	tab := table.MustNew("flights", city, month, cancelled)
	d, err := NewDataset(tab, airport, date)
	if err != nil {
		t.Fatalf("NewDataset: %v", err)
	}
	return &fixture{dataset: d, airport: airport, date: date}
}

func TestEvaluateWorkersEquivalence(t *testing.T) {
	f := bigFixture(t, 3*evalChunkRows+1234)
	queries := []Query{
		f.regionSeasonQuery(),
		{Fct: Count, GroupBy: []GroupBy{{Hierarchy: f.airport, Level: 2}}},
		{Fct: Sum, Col: "cancelled", ColDescription: "total",
			Filters: []*dimension.Member{f.airport.FindMember("the North East")},
			GroupBy: []GroupBy{{Hierarchy: f.date, Level: 1}}},
	}
	workerCounts := []int{1, 2, runtime.NumCPU()}
	for qi, q := range queries {
		space, err := NewSpace(f.dataset, q)
		if err != nil {
			t.Fatalf("query %d: NewSpace: %v", qi, err)
		}
		seq, err := EvaluateSpaceSequential(space)
		if err != nil {
			t.Fatalf("query %d: sequential: %v", qi, err)
		}
		for _, w := range workerCounts {
			par, err := EvaluateSpaceWorkers(space, w)
			if err != nil {
				t.Fatalf("query %d workers %d: %v", qi, w, err)
			}
			for a := 0; a < space.Size(); a++ {
				if par.Count(a) != seq.Count(a) {
					t.Errorf("query %d workers %d agg %d: count %d, sequential %d",
						qi, w, a, par.Count(a), seq.Count(a))
				}
				// One worker is the sequential scan, so its sums must match
				// bit for bit; more workers reassociate them.
				ps, ss := par.Sum(a), seq.Sum(a)
				if (w == 1 && ps != ss) || math.Abs(ps-ss) > math.Abs(ss)*1e-9+1e-12 {
					t.Errorf("query %d workers %d agg %d: sum %v, sequential %v",
						qi, w, a, ps, ss)
				}
			}
		}
	}
}

// TestEvaluateWorkersDeterministic proves the chunk-grain design: the
// parallel result is bit-identical across worker counts, sums included,
// because partial grids always merge in chunk order.
func TestEvaluateWorkersDeterministic(t *testing.T) {
	f := bigFixture(t, 4*evalChunkRows+99)
	space, err := NewSpace(f.dataset, f.regionSeasonQuery())
	if err != nil {
		t.Fatalf("NewSpace: %v", err)
	}
	ref, err := EvaluateSpaceWorkers(space, 2)
	if err != nil {
		t.Fatalf("workers 2: %v", err)
	}
	for _, w := range []int{2, 3, 4, 8} {
		got, err := EvaluateSpaceWorkers(space, w)
		if err != nil {
			t.Fatalf("workers %d: %v", w, err)
		}
		for a := 0; a < space.Size(); a++ {
			if got.Sum(a) != ref.Sum(a) || got.Count(a) != ref.Count(a) {
				t.Errorf("workers %d agg %d: (%v,%d) differs from workers 2 (%v,%d)",
					w, a, got.Sum(a), got.Count(a), ref.Sum(a), ref.Count(a))
			}
		}
	}
}
