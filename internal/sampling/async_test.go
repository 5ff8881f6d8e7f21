package sampling

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/olap"
	"repro/internal/table"
)

// newAsync builds a background sampler over a seeded pseudo-random scan.
func newAsync(t *testing.T, s *olap.Space, rng *rand.Rand, batch int) *AsyncSampler {
	t.Helper()
	return newAsyncOver(t, s, table.NewRandomScanner(s.Dataset().Table(), rng), batch)
}

// newAsyncOver builds a background sampler over an explicit row stream.
func newAsyncOver(t *testing.T, s *olap.Space, scanner table.Scanner, batch int) *AsyncSampler {
	t.Helper()
	smp, err := NewSamplerWithScanner(s, scanner)
	if err != nil {
		t.Fatalf("NewSamplerWithScanner: %v", err)
	}
	a, err := NewAsyncSampler(smp, batch)
	if err != nil {
		t.Fatalf("NewAsyncSampler: %v", err)
	}
	return a
}

// TestAsyncSamplerMatchesSequential pins the background sampler to the
// sequential reference: drained over a seeded stream it holds the cache a
// Sampler.ReadRows over the same stream builds, bit for bit — journal,
// replay and locking add no numeric deviation.
func TestAsyncSamplerMatchesSequential(t *testing.T) {
	for _, fct := range []olap.AggFunc{olap.Avg, olap.Sum, olap.Count} {
		s := flightsSpace(t, fct)
		n := s.Dataset().Table().NumRows()
		const seed = 31

		a := newAsync(t, s, rand.New(rand.NewSource(seed)), 512)
		a.Start()
		select {
		case <-a.Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("%v: scan did not finish", fct)
		}
		a.Stop()

		seq, err := NewSampler(s, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatalf("NewSampler: %v", err)
		}
		if got := seq.ReadRows(n + 1); got != n {
			t.Fatalf("%v: sequential read %d of %d rows", fct, got, n)
		}
		want := seq.Cache()

		if a.NrRead() != want.NrRead() || a.NrInScope() != want.NrInScope() {
			t.Fatalf("%v: read %d/%d in scope %d/%d", fct,
				a.NrRead(), want.NrRead(), a.NrInScope(), want.NrInScope())
		}
		// Running-mean estimates draw nothing from the rng.
		all := make([]int, s.Size())
		for agg := range all {
			all[agg] = agg
			g, gok := a.Estimate(agg, nil)
			w, wok := want.Estimate(agg, nil)
			if gok != wok || math.Float64bits(g) != math.Float64bits(w) {
				t.Errorf("%v agg %d: estimate %v (%v), sequential %v (%v)", fct, agg, g, gok, w, wok)
			}
		}
		g, gok := a.GrandEstimate()
		w, wok := want.GrandEstimate()
		if gok != wok || math.Float64bits(g) != math.Float64bits(w) {
			t.Errorf("%v: grand %v (%v), sequential %v (%v)", fct, g, gok, w, wok)
		}
		giv, gok := a.PooledConfidenceInterval(all, 0.95)
		wiv, wok := want.PooledConfidenceInterval(all, 0.95)
		if gok != wok || giv != wiv {
			t.Errorf("%v: pooled interval %+v (%v), sequential %+v (%v)", fct, giv, gok, wiv, wok)
		}
		requireCachesBitIdentical(t, a.cache, want, fct.String())
	}
}

func TestAsyncSamplerFillsInBackground(t *testing.T) {
	s := flightsSpace(t, olap.Avg)
	rng := rand.New(rand.NewSource(1))
	a := newAsync(t, s, rng, 128)
	a.Start()
	defer a.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for a.NrRead() < 5000 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if a.NrRead() < 5000 {
		t.Fatalf("background scan too slow: %d rows", a.NrRead())
	}
	// Estimates available while scanning.
	agg, ok := a.PickAggregate(rng)
	if !ok {
		t.Fatal("no eligible aggregate")
	}
	if _, ok := a.Estimate(agg, rng); !ok {
		t.Fatal("estimate unavailable")
	}
	if _, ok := a.GrandEstimate(); !ok {
		t.Fatal("grand estimate unavailable")
	}
}

func TestAsyncSamplerDrainsTable(t *testing.T) {
	s := flightsSpace(t, olap.Avg)
	rng := rand.New(rand.NewSource(2))
	a := newAsync(t, s, rng, 4096)
	a.Start()
	n := int64(s.Dataset().Table().NumRows())
	deadline := time.Now().Add(10 * time.Second)
	for a.NrRead() < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	a.Stop()
	if a.NrRead() != n {
		t.Fatalf("read %d of %d rows", a.NrRead(), n)
	}
	// With the full table consumed, the grand estimate is exact.
	exact, _ := olap.EvaluateSpace(s)
	got, ok := a.GrandEstimate()
	if !ok {
		t.Fatal("grand estimate unavailable")
	}
	if math.Abs(got-exact.GrandValue()) > 1e-12 {
		t.Errorf("grand = %v, exact %v", got, exact.GrandValue())
	}
}

func TestAsyncSamplerStopIsIdempotent(t *testing.T) {
	s := flightsSpace(t, olap.Avg)
	rng := rand.New(rand.NewSource(3))
	a := newAsync(t, s, rng, 64)
	// Stop before start: no deadlock.
	a.Stop()
	a.Stop()
	// Start after stop is a no-op scan (channel already closed).
	a.Start()
	a.Stop()
}

func TestAsyncSamplerConcurrentReads(t *testing.T) {
	s := flightsSpace(t, olap.Avg)
	a := newAsync(t, s, rand.New(rand.NewSource(4)), 64)
	a.Start()
	defer a.Stop()
	all := make([]int, s.Size())
	for i := range all {
		all[i] = i
	}
	done := make(chan struct{})
	go func() {
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 2000; i++ {
			if agg, ok := a.PickAggregate(rng); ok {
				a.Estimate(agg, rng)
			}
			a.GrandEstimate()
			a.NrInScope()
		}
		close(done)
	}()
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 2000; i++ {
		a.NrRead()
		if agg, ok := a.PickAggregate(rng); ok {
			a.Estimate(agg, rng)
		}
		if i%100 == 0 {
			a.PooledConfidenceInterval(all, 0.95)
		}
	}
	<-done
}

func TestAsyncSamplerPooledInterval(t *testing.T) {
	s := flightsSpace(t, olap.Avg)
	a := newAsync(t, s, rand.New(rand.NewSource(7)), 1024)
	a.Start()
	defer a.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for a.NrRead() < 2000 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	all := make([]int, s.Size())
	for i := range all {
		all[i] = i
	}
	if _, ok := a.PooledConfidenceInterval(all, 0.95); !ok {
		t.Error("pooled interval unavailable after 2000 rows")
	}
}
