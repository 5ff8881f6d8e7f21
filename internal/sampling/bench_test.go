package sampling

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/olap"
	"repro/internal/table"
)

func benchSpace(b *testing.B, fct olap.AggFunc) *olap.Space {
	b.Helper()
	d, err := datagen.Flights(datagen.FlightsConfig{Rows: 50000, Seed: 11})
	if err != nil {
		b.Fatalf("Flights: %v", err)
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
		b.Fatalf("NewSpace: %v", err)
	}
	return s
}

// BenchmarkCacheInsertBatch times the batched insert a planning round runs.
func BenchmarkCacheInsertBatch(b *testing.B) {
	s := benchSpace(b, olap.Avg)
	c, err := NewCache(s)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	rows := make([]int, 256)
	n := s.Dataset().Table().NumRows()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range rows {
			rows[j] = rng.Intn(n)
		}
		c.InsertBatch(rows)
	}
}

// paperScaleSpace is region x season over the paper's 5.3 M flights, built
// once per process: 106 MB of columns, far past every cache level, which is
// the cost BenchmarkCacheInsertBatch's 50 000 rows never see.
var paperScaleSpace = sync.OnceValues(func() (*olap.Space, error) {
	d, err := datagen.Flights(datagen.FlightsConfig{Rows: 5_300_000, Seed: 1})
	if err != nil {
		return nil, err
	}
	return olap.NewSpace(d, olap.Query{
		Fct: olap.Avg, Col: "cancelled",
		GroupBy: []olap.GroupBy{
			{Hierarchy: d.HierarchyByName("start airport"), Level: 1},
			{Hierarchy: d.HierarchyByName("flight date"), Level: 1},
		},
	})
})

// BenchmarkSamplerReadRows times what a planning round pays for its rows:
// ReadRows(64) through the production scanner over a table that fits in no
// cache, against the same call on consecutive rows as the floor.
func BenchmarkSamplerReadRows(b *testing.B) {
	s, err := paperScaleSpace()
	if err != nil {
		b.Fatal(err)
	}
	tab := s.Dataset().Table()
	scanners := []struct {
		name string
		new  func() table.Scanner
	}{
		{"random", func() table.Scanner { return table.NewRandomScanner(tab, rand.New(rand.NewSource(1))) }},
		{"sequential", func() table.Scanner { return table.NewSequentialScanner(tab) }},
	}
	for _, sc := range scanners {
		b.Run(sc.name, func(b *testing.B) {
			scanner := sc.new()
			smp, err := NewSamplerWithScanner(s, scanner)
			if err != nil {
				b.Fatal(err)
			}
			const perCall = 64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if smp.ReadRows(perCall) < perCall {
					scanner.Reset()
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*perCall), "ns/row")
		})
	}
}
