package faults

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/table"
)

// newTestTable builds a tiny table for scanner construction.
func newTestTable(t *testing.T) *table.Table {
	t.Helper()
	col := make([]float64, 100)
	for i := range col {
		col[i] = float64(i)
	}
	tab, err := table.New("t", table.NewFloat64ColumnFromValues("v", col))
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestInjectorWrapsEveryNthScan(t *testing.T) {
	tb := newTestTable(t)
	in := NewInjector(InjectorOptions{SlowEvery: 3, SlowDelay: time.Microsecond})
	rng := rand.New(rand.NewSource(1))
	slow := 0
	for i := 0; i < 9; i++ {
		if _, ok := in.Scanner(tb, rng).(*SlowScanner); ok {
			slow++
		}
	}
	if slow != 3 {
		t.Errorf("slow scans = %d of 9, want 3 (every 3rd)", slow)
	}
	st := in.Stats()
	if st.Scans != 9 || st.Slowed != 3 {
		t.Errorf("stats = %+v, want scans:9 slowed:3", st)
	}
}

func TestInjectorStallAutoReleases(t *testing.T) {
	tb := newTestTable(t)
	in := NewInjector(InjectorOptions{
		StallEvery: 1, StallAfter: 2, StallRelease: 20 * time.Millisecond,
	})
	s := in.Scanner(tb, rand.New(rand.NewSource(1)))
	for i := 0; i < 2; i++ {
		if _, ok := s.Next(); !ok {
			t.Fatalf("row %d: scan ended before the stall point", i)
		}
	}
	// The third Next stalls, then the auto-release turns it into
	// exhaustion: delayed, never wedged.
	start := time.Now()
	done := make(chan bool, 1)
	go func() {
		_, ok := s.Next()
		done <- ok
	}()
	select {
	case ok := <-done:
		if ok {
			t.Error("released stall must report exhaustion")
		}
		if time.Since(start) < 10*time.Millisecond {
			t.Error("stall released too early to have blocked at all")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stall never auto-released")
	}
}

func TestInjectorDisabledPassesScansThrough(t *testing.T) {
	tb := newTestTable(t)
	opts := InjectorOptions{}
	if opts.Enabled() {
		t.Fatal("zero options must report disabled")
	}
	in := NewInjector(opts)
	s := in.Scanner(tb, rand.New(rand.NewSource(1)))
	if _, ok := s.(*table.RandomScanner); !ok {
		t.Errorf("disabled injector built %T, want *table.RandomScanner", s)
	}
}

func TestInjectorConcurrentConstruction(t *testing.T) {
	tb := newTestTable(t)
	in := NewInjector(InjectorOptions{SlowEvery: 2, FailEvery: 5})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				s := in.Scanner(tb, rng)
				s.Next()
			}
		}(int64(w))
	}
	wg.Wait()
	st := in.Stats()
	if st.Scans != 400 {
		t.Fatalf("scans = %d, want 400", st.Scans)
	}
	if st.Slowed != 200 || st.Failed != 80 {
		t.Errorf("stats = %+v, want slowed:200 failed:80", st)
	}
}
