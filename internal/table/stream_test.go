package table_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/datagen"
	"repro/internal/olap"
	"repro/internal/sampling"
	"repro/internal/stats"
	"repro/internal/table"
)

// dateSortedFlights is the flights table with its rows stably sorted by
// month in calendar order of the date hierarchy: the adversarial layout
// for a block sample, because every block lies inside one month.
func dateSortedFlights(tb testing.TB, rows int) *olap.Dataset {
	tb.Helper()
	d, err := datagen.Flights(datagen.FlightsConfig{Rows: rows, Seed: 7})
	if err != nil {
		tb.Fatal(err)
	}
	airportH, dateH, airlineH := datagen.FlightHierarchies()
	src := d.Table()
	month := src.Column("month").(*table.StringColumn)
	rank := make([]int, len(month.Dict()))
	for i, m := range dateH.Root().DescendantsAt(2) {
		rank[slices.Index(month.Dict(), m.Name)] = i
	}
	// A stable counting sort: perm[i] is the source row of sorted row i.
	next := make([]int, len(rank)+1)
	monthCodes := month.Codes()
	for i := 0; i < rows; i++ {
		next[rank[monthCodes[i]]+1]++
	}
	for r := 1; r < len(next); r++ {
		next[r] += next[r-1]
	}
	perm := make([]int, rows)
	for i := 0; i < rows; i++ {
		r := rank[monthCodes[i]]
		perm[next[r]] = i
		next[r]++
	}
	cols := make([]table.Column, 0, 4)
	for _, name := range []string{"airport", "month", "airline"} {
		c := src.Column(name).(*table.StringColumn)
		from, codes := c.Codes(), make([]int32, rows)
		for i, p := range perm {
			codes[i] = from[p]
		}
		sorted, err := table.NewStringColumnFromCodes(name, c.Dict(), codes)
		if err != nil {
			tb.Fatal(err)
		}
		cols = append(cols, sorted)
	}
	cancelled := make([]float64, rows)
	for i, p := range perm {
		cancelled[i] = src.Column("cancelled").Float(p)
	}
	cols = append(cols, table.NewFloat64ColumnFromValues("cancelled", cancelled))
	sortedTable, err := table.New("flights by date", cols...)
	if err != nil {
		tb.Fatal(err)
	}
	sortedDataset, err := olap.NewDataset(sortedTable, airportH, dateH, airlineH)
	if err != nil {
		tb.Fatal(err)
	}
	return sortedDataset
}

// byMonth is fct(cancelled) grouped by month over d.
func byMonth(tb testing.TB, d *olap.Dataset, fct olap.AggFunc) *olap.Space {
	tb.Helper()
	q := olap.Query{Fct: fct, Col: "cancelled",
		GroupBy: []olap.GroupBy{{Hierarchy: d.HierarchyByName("flight date"), Level: 2}}}
	if fct == olap.Count {
		q.Col = ""
	}
	s, err := olap.NewSpace(d, q)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// TestBlockSampleCoverage is the table blockRows was chosen from (DESIGN.md,
// "The row stream"): on the date-sorted flights, how often the nominal 95 %
// interval of a 20 000-row cache holds the exact value, per block size. An
// average over a month is safe at any size, since inside a month the rows
// are in random order; a count per month is not, since a block is wholly
// inside or outside the month and the proportion interval takes its rows
// for independent draws. The test pins the first and records the second.
func TestBlockSampleCoverage(t *testing.T) {
	const rows, sample, seeds = 500_000, 20_000, 400
	d := dateSortedFlights(t, rows)
	sizes := []int{1, 8, table.BlockRows, 32, 64}
	if testing.Short() {
		sizes = []int{table.BlockRows}
	}
	for _, fct := range []olap.AggFunc{olap.Avg, olap.Count} {
		space := byMonth(t, d, fct)
		exact, err := olap.EvaluateSpace(space)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range sizes {
			covered, intervals := 0, 0
			// deff[seed] is the squared error of that seed's estimates over
			// the variance a simple random sample of the same size (without
			// replacement) would have, averaged over the months: the seed's
			// share of the count's design effect.
			deff := make([]float64, seeds)
			for seed := range deff {
				rng := rand.New(rand.NewSource(int64(seed)))
				smp, err := sampling.NewSamplerWithScanner(space, table.NewBlockScanner(0, rows, b, rng))
				if err != nil {
					t.Fatal(err)
				}
				smp.ReadRows(sample)
				for a := 0; a < space.Size(); a++ {
					iv, ok := smp.Cache().ConfidenceInterval(a, 0.95)
					if !ok {
						continue
					}
					intervals++
					if iv.Contains(exact.Value(a)) {
						covered++
					}
					if fct == olap.Count {
						p := exact.Value(a) / rows
						srs := rows * rows * p * (1 - p) / sample * (1 - sample/float64(rows))
						est, _ := smp.Cache().Estimate(a, rng)
						deff[seed] += (est - exact.Value(a)) * (est - exact.Value(a)) / srs / float64(space.Size())
					}
				}
			}
			coverage := float64(covered) / float64(intervals)
			if fct == olap.Avg {
				t.Logf("%v by month, B = %2d: coverage %.3f of %d intervals", fct, b, coverage, intervals)
				if b == table.BlockRows && coverage < 0.92 {
					t.Errorf("Avg coverage %.3f at B = %d, want >= 0.92 at nominal 0.95", coverage, b)
				}
				continue
			}
			sort.Float64s(deff)
			t.Logf("%v by month, B = %2d: coverage %.3f of %d intervals, design effect mean %.2f median %.2f worst seed %.0f",
				fct, b, coverage, intervals, stats.Mean(deff), deff[seeds/2], deff[seeds-1])
		}
	}
}

// BenchmarkSamplerReadRows times what a planning round pays for its rows:
// Sampler.ReadRows(64) over the paper's 5.3 M flights (region by season,
// average cancellation), a table that fits in no cache. "production" is the
// scanner the planner gets, "sequential" the floor on consecutive rows, and
// the B = ... runs are the other half of the choice of blockRows.
func BenchmarkSamplerReadRows(b *testing.B) {
	const rows = 5_300_000
	d, err := datagen.Flights(datagen.FlightsConfig{Rows: rows, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	space, err := olap.NewSpace(d, olap.Query{Fct: olap.Avg, Col: "cancelled", GroupBy: []olap.GroupBy{
		{Hierarchy: d.HierarchyByName("start airport"), Level: 1},
		{Hierarchy: d.HierarchyByName("flight date"), Level: 1},
	}})
	if err != nil {
		b.Fatal(err)
	}
	// An exhausted stream starts over on a new sampler, built off the clock.
	run := func(name string, scanner func() table.Scanner) {
		b.Run(name, func(b *testing.B) {
			sampler := func() *sampling.Sampler {
				smp, err := sampling.NewSamplerWithScanner(space, scanner())
				if err != nil {
					b.Fatal(err)
				}
				return smp
			}
			smp := sampler()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if smp.ReadRows(64) < 64 {
					b.StopTimer()
					smp = sampler()
					b.StartTimer()
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*64), "ns/row")
		})
	}
	rng := func() *rand.Rand { return rand.New(rand.NewSource(1)) }
	run("production", func() table.Scanner { return table.NewRandomScanner(d.Table(), rng()) })
	run("sequential", func() table.Scanner { return table.NewSequentialScanner(d.Table()) })
	for _, size := range []int{1, 4, 8, 16, 32, 64} {
		run(fmt.Sprintf("B=%d", size), func() table.Scanner { return table.NewBlockScanner(0, rows, size, rng()) })
	}
}
