package olap

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/table"
)

// windowFixtureStream builds a live copy of the fixture table and appends
// nBatches timed batches of deterministic pseudo-random rows, one minute
// apart. It returns the live table.
func windowFixtureStream(t *testing.T, f *fixture, seed int64, nBatches, rowsPerBatch int) *table.Table {
	t.Helper()
	t0 := time.Date(2026, 2, 1, 9, 0, 0, 0, time.UTC)
	live, err := f.dataset.Table().AppendableCopy(t0)
	if err != nil {
		t.Fatal(err)
	}
	cities := []string{"Boston", "New York City", "Chicago", "Detroit", "Los Angeles"}
	months := []string{"January", "February", "July", "August"}
	rng := rand.New(rand.NewSource(seed))
	for bi := 0; bi < nBatches; bi++ {
		var cs, ms []string
		var vals []float64
		for r := 0; r < rowsPerBatch; r++ {
			cs = append(cs, cities[rng.Intn(len(cities))])
			ms = append(ms, months[rng.Intn(len(months))])
			vals = append(vals, rng.Float64())
		}
		b := table.NewRowBatch().Strings("city", cs...).Strings("month", ms...).Float64s("cancelled", vals...)
		if _, err := live.AppendBatch(b, t0.Add(time.Duration(bi+1)*time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	return live
}

// staticSuffix materializes rows [lo, n) of snap as a plain frozen table —
// the batch-recompute reference a windowed query must match bit for bit.
func staticSuffix(t *testing.T, snap *table.Table, lo int) *table.Table {
	t.Helper()
	city := table.NewStringColumn("city")
	month := table.NewStringColumn("month")
	cancelled := table.NewFloat64Column("cancelled")
	cityCol, err := snap.StringColumn("city")
	if err != nil {
		t.Fatal(err)
	}
	monthCol, err := snap.StringColumn("month")
	if err != nil {
		t.Fatal(err)
	}
	measure, err := snap.Float64Column("cancelled")
	if err != nil {
		t.Fatal(err)
	}
	for row := lo; row < snap.NumRows(); row++ {
		city.Append(cityCol.StringAt(row))
		month.Append(monthCol.StringAt(row))
		cancelled.Append(measure.Float(row))
	}
	tab, err := table.New("flights", city, month, cancelled)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestWindowedQueryMatchesStaticRecompute is the streaming-correctness
// property test: for every window width, evaluating a time-windowed query
// over a frozen stream snapshot must be bit-identical — exact counts and
// exact float sums — to the unwindowed batch recompute over a static
// table holding exactly the window's rows.
func TestWindowedQueryMatchesStaticRecompute(t *testing.T) {
	f := newFixture(t)
	for seed := int64(1); seed <= 3; seed++ {
		live := windowFixtureStream(t, f, seed, 6, 97)
		snap := live.Snapshot()
		streamDS, err := NewDataset(snap, f.airport, f.date)
		if err != nil {
			t.Fatal(err)
		}
		windows := []time.Duration{
			30 * time.Second, // newest batch only
			90 * time.Second,
			3*time.Minute + 30*time.Second,
			5 * time.Minute, // all batches, base rows excluded
			time.Hour,       // everything
			0,               // unwindowed
		}
		for _, fct := range []AggFunc{Avg, Count, Sum} {
			for _, w := range windows {
				q := f.regionSeasonQuery()
				q.Fct = fct
				if fct == Count {
					q.Col = ""
				}
				q.Window = Window{Last: w}
				space, err := NewSpace(streamDS, q)
				if err != nil {
					t.Fatal(err)
				}
				got, err := EvaluateSpaceSequential(space)
				if err != nil {
					t.Fatal(err)
				}

				lo, hi := space.RowBounds()
				if hi != snap.NumRows() {
					t.Fatalf("row bounds hi = %d, want %d", hi, snap.NumRows())
				}
				refDS, err := NewDataset(staticSuffix(t, snap, lo), f.airport, f.date)
				if err != nil {
					t.Fatal(err)
				}
				refQ := q
				refQ.Window = Window{}
				refSpace, err := NewSpace(refDS, refQ)
				if err != nil {
					t.Fatal(err)
				}
				want, err := EvaluateSpaceSequential(refSpace)
				if err != nil {
					t.Fatal(err)
				}

				if space.Size() != refSpace.Size() {
					t.Fatalf("space sizes diverge: %d vs %d", space.Size(), refSpace.Size())
				}
				for idx := 0; idx < space.Size(); idx++ {
					if got.counts[idx] != want.counts[idx] {
						t.Fatalf("seed %d fct %v window %v agg %d: count %d, want %d",
							seed, fct, w, idx, got.counts[idx], want.counts[idx])
					}
					if got.sums[idx] != want.sums[idx] {
						t.Fatalf("seed %d fct %v window %v agg %d: sum %v, want %v (not bit-identical)",
							seed, fct, w, idx, got.sums[idx], want.sums[idx])
					}
				}

				// The batch classifiers must agree with the row-at-a-time
				// path on window bounds (ClassifyRows/ClassifyRange drive
				// sampling and the parallel scan).
				rows := make([]int, snap.NumRows())
				for i := range rows {
					rows[i] = i
				}
				batch := make([]int32, len(rows))
				space.ClassifyRows(rows, batch)
				ranged := make([]int32, len(rows))
				space.ClassifyRange(0, snap.NumRows(), ranged)
				for i := range rows {
					idx, ok := space.ClassifyRow(i)
					wantIdx := int32(-1)
					if ok {
						wantIdx = int32(idx)
					}
					if batch[i] != wantIdx || ranged[i] != wantIdx {
						t.Fatalf("window %v row %d: ClassifyRow=%d ClassifyRows=%d ClassifyRange=%d",
							w, i, wantIdx, batch[i], ranged[i])
					}
				}
			}
		}
	}
}
