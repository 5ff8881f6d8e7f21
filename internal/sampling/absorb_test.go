package sampling

import (
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/olap"
	"repro/internal/table"
)

// appendFlightRows appends n schema-valid rows to a live flights table,
// cycling through each column's existing dictionary.
func appendFlightRows(t *testing.T, live *table.Table, n int, at time.Time) {
	t.Helper()
	snap := live.Snapshot()
	dict := func(col string) []string {
		sc, err := snap.StringColumn(col)
		if err != nil {
			t.Fatal(err)
		}
		return sc.Dict()
	}
	airports, months, airlines := dict("airport"), dict("month"), dict("airline")
	var ap, mo, al []string
	var cc []float64
	for i := 0; i < n; i++ {
		ap = append(ap, airports[i%len(airports)])
		mo = append(mo, months[i%len(months)])
		al = append(al, airlines[i%len(airlines)])
		cc = append(cc, float64(i%7)/6)
	}
	b := table.NewRowBatch().
		Strings("airport", ap...).
		Strings("month", mo...).
		Strings("airline", al...).
		Float64s("cancelled", cc...)
	if _, err := live.AppendBatch(b, at); err != nil {
		t.Fatal(err)
	}
}

func streamingFlightsSpace(t *testing.T, tab *table.Table, base *olap.Dataset, fct olap.AggFunc, window time.Duration) *olap.Space {
	t.Helper()
	d, err := olap.NewDataset(tab, base.Hierarchies()...)
	if err != nil {
		t.Fatal(err)
	}
	q := olap.Query{
		Fct: fct, Col: "cancelled",
		GroupBy: []olap.GroupBy{
			{Hierarchy: d.HierarchyByName("start airport"), Level: 1},
			{Hierarchy: d.HierarchyByName("flight date"), Level: 1},
		},
		Window: olap.Window{Last: window},
	}
	if fct == olap.Count {
		q.Col = ""
	}
	s, err := olap.NewSpace(d, q)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// fillAll reads every row of the cache's table front to back.
func fillAll(c *Cache) {
	sc := table.NewSequentialScanner(c.space.Dataset().Table())
	buf := make([]int, 1024)
	for {
		n := sc.NextBatch(buf)
		if n == 0 {
			return
		}
		c.InsertBatch(buf[:n])
	}
}

// TestAbsorbAppendMatchesRebuild proves the incremental-maintenance claim:
// after a full read of the base snapshot, absorbing an append batch must
// leave the cache bit-identical — every per-aggregate estimate, the grand
// estimate, and every confidence interval — to a cache rebuilt from
// scratch over the new snapshot.
func TestAbsorbAppendMatchesRebuild(t *testing.T) {
	base, err := datagen.Flights(datagen.FlightsConfig{Rows: 5000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	live, err := base.Table().AppendableCopy(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	if err != nil {
		t.Fatal(err)
	}
	for _, fct := range []olap.AggFunc{olap.Avg, olap.Count, olap.Sum} {
		snap0 := live.Snapshot()
		absorbed, err := NewCache(streamingFlightsSpace(t, snap0, base, fct, 0))
		if err != nil {
			t.Fatal(err)
		}
		fillAll(absorbed)

		appendFlightRows(t, live, 700, time.Date(2026, 1, 1, 1, 0, 0, 0, time.UTC))
		snap1 := live.Snapshot()
		next := streamingFlightsSpace(t, snap1, base, fct, 0)
		if err := absorbed.AbsorbAppend(next); err != nil {
			t.Fatalf("%v: AbsorbAppend: %v", fct, err)
		}

		rebuilt, err := NewCache(streamingFlightsSpace(t, snap1, base, fct, 0))
		if err != nil {
			t.Fatal(err)
		}
		fillAll(rebuilt)

		if absorbed.NrRead() != rebuilt.NrRead() || absorbed.NrInScope() != rebuilt.NrInScope() {
			t.Fatalf("%v: read/in-scope diverge: %d/%d vs %d/%d", fct,
				absorbed.NrRead(), absorbed.NrInScope(), rebuilt.NrRead(), rebuilt.NrInScope())
		}
		if absorbed.TotalRows() != rebuilt.TotalRows() {
			t.Fatalf("%v: totalRows %d vs %d", fct, absorbed.TotalRows(), rebuilt.TotalRows())
		}
		ga, oka := absorbed.GrandEstimate()
		gr, okr := rebuilt.GrandEstimate()
		if oka != okr || ga != gr {
			t.Fatalf("%v: grand estimate %v/%v vs %v/%v", fct, ga, oka, gr, okr)
		}
		for a := 0; a < next.Size(); a++ {
			ea, oka := absorbed.Estimate(a, nil)
			er, okr := rebuilt.Estimate(a, nil)
			if oka != okr || ea != er {
				t.Fatalf("%v: aggregate %d estimate %v/%v vs %v/%v", fct, a, ea, oka, er, okr)
			}
			ia, oka := absorbed.ConfidenceInterval(a, 0.95)
			ir, okr := rebuilt.ConfidenceInterval(a, 0.95)
			if oka != okr || ia != ir {
				t.Fatalf("%v: aggregate %d interval %v vs %v", fct, a, ia, ir)
			}
		}
	}
}

func TestAbsorbAppendRejections(t *testing.T) {
	base, err := datagen.Flights(datagen.FlightsConfig{Rows: 2000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	live, err := base.Table().AppendableCopy(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	if err != nil {
		t.Fatal(err)
	}
	snap0 := live.Snapshot()
	c, err := NewCache(streamingFlightsSpace(t, snap0, base, olap.Avg, 0))
	if err != nil {
		t.Fatal(err)
	}
	// Different aggregate function.
	if err := c.AbsorbAppend(streamingFlightsSpace(t, snap0, base, olap.Count, 0)); err == nil {
		t.Fatal("absorbed a different query")
	}
	// A time-windowed target space.
	appendFlightRows(t, live, 10, time.Date(2026, 1, 1, 1, 0, 0, 0, time.UTC))
	snap1 := live.Snapshot()
	if err := c.AbsorbAppend(streamingFlightsSpace(t, snap1, base, olap.Avg, time.Minute)); err == nil {
		t.Fatal("absorbed a windowed space")
	}
	// A shrunken table.
	bigger, err := NewCache(streamingFlightsSpace(t, snap1, base, olap.Avg, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := bigger.AbsorbAppend(streamingFlightsSpace(t, snap0, base, olap.Avg, 0)); err == nil {
		t.Fatal("absorbed a shrunken table")
	}
}
