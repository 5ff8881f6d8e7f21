package faults

import (
	"math/rand"
	"sync"
	"sync/atomic"
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
}

func TestInjectorStallAutoReleases(t *testing.T) {
	tb := newTestTable(t)
	in := NewInjector(InjectorOptions{
		StallEvery: 1, StallAfter: 2, StallRelease: 20 * time.Millisecond,
	})
	s := in.Scanner(tb, rand.New(rand.NewSource(1)))
	if n := s.NextBatch(make([]int, 4)); n != 2 {
		t.Fatalf("%d rows before the stall point, want 2", n)
	}
	// The next read stalls, then the auto-release turns it into
	// exhaustion: delayed, never wedged.
	start := time.Now()
	done := make(chan int, 1)
	go func() { done <- s.NextBatch(make([]int, 4)) }()
	select {
	case n := <-done:
		if n != 0 {
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
	var slowed, failed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				s := in.Scanner(tb, rng)
				s.NextBatch(make([]int, 1))
				if slow, ok := s.(*SlowScanner); ok {
					slowed.Add(1)
					s = slow.Inner
				}
				if _, ok := s.(*FailingScanner); ok {
					failed.Add(1)
				}
			}
		}(int64(w))
	}
	wg.Wait()
	// Every scan number from 1 to 400 was handed out once: 200 of them
	// are even and 80 divisible by 5.
	if slowed.Load() != 200 || failed.Load() != 80 {
		t.Errorf("slowed %d and failed %d of 400 scans, want 200 and 80", slowed.Load(), failed.Load())
	}
}
