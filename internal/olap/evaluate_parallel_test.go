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

// parallelQueries are an average, a count and a filtered sum over a
// bigFixture.
func parallelQueries(f *fixture) []Query {
	return []Query{
		f.regionSeasonQuery(),
		{Fct: Count, GroupBy: []GroupBy{{Hierarchy: f.airport, Level: 2}}},
		{Fct: Sum, Col: "cancelled", ColDescription: "total",
			Filters: []*dimension.Member{f.airport.FindMember("the North East")},
			GroupBy: []GroupBy{{Hierarchy: f.date, Level: 1}}},
	}
}

func TestEvaluateWorkersEquivalence(t *testing.T) {
	f := bigFixture(t, 3*evalChunkRows+1234)
	workerCounts := []int{1, 2, runtime.NumCPU()}
	for qi, q := range parallelQueries(f) {
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
				// The chunked scan groups the additions by chunk, so its
				// sums match the row-by-row scan to rounding only.
				ps, ss := par.Sum(a), seq.Sum(a)
				if math.Abs(ps-ss) > math.Abs(ss)*1e-9+1e-12 {
					t.Errorf("query %d workers %d agg %d: sum %v, sequential %v",
						qi, w, a, ps, ss)
				}
			}
		}
	}
}

// chunkOrderSums is the test-side reference for the exact scan's
// arithmetic: each evalChunkRows chunk sums its in-scope rows in row order
// starting from zero, and the chunk sums merge into the totals in chunk
// order.
func chunkOrderSums(t *testing.T, space *Space) (counts []int64, sums []float64) {
	t.Helper()
	measure, err := evalMeasure(space)
	if err != nil {
		t.Fatalf("measure: %v", err)
	}
	counts = make([]int64, space.Size())
	sums = make([]float64, space.Size())
	n := space.Dataset().Table().NumRows()
	for lo := 0; lo < n; lo += evalChunkRows {
		chunk := make([]float64, space.Size())
		for row := lo; row < min(lo+evalChunkRows, n); row++ {
			if idx, ok := space.ClassifyRow(row); ok {
				counts[idx]++
				if measure != nil {
					chunk[idx] += measure.Float(row)
				}
			}
		}
		for a := range sums {
			sums[a] += chunk[a]
		}
	}
	return counts, sums
}

// TestEvaluateWorkersDeterministic proves the chunk-grain design: the
// result is bit-identical across worker counts, one worker and the
// GOMAXPROCS default included, sums too, because every count runs the
// same chunk loop and merges partial grids in chunk order.
func TestEvaluateWorkersDeterministic(t *testing.T) {
	f := bigFixture(t, 4*evalChunkRows+99)
	for qi, q := range parallelQueries(f) {
		space, err := NewSpace(f.dataset, q)
		if err != nil {
			t.Fatalf("query %d: NewSpace: %v", qi, err)
		}
		counts, sums := chunkOrderSums(t, space)
		for _, w := range []int{1, 2, 3, 4, 8, runtime.GOMAXPROCS(0)} {
			got, err := EvaluateSpaceWorkers(space, w)
			if err != nil {
				t.Fatalf("query %d workers %d: %v", qi, w, err)
			}
			for a := 0; a < space.Size(); a++ {
				if got.Sum(a) != sums[a] || got.Count(a) != counts[a] {
					t.Errorf("query %d workers %d agg %d: (%v,%d) differs from the chunk-order reference (%v,%d)",
						qi, w, a, got.Sum(a), got.Count(a), sums[a], counts[a])
				}
			}
		}
	}
}
