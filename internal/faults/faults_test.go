package faults

import (
	"testing"
	"time"

	"repro/internal/table"
	"repro/internal/voice"
)

func testScanner(t *testing.T, n int) table.Scanner {
	t.Helper()
	col := table.NewFloat64Column("v")
	for i := 0; i < n; i++ {
		col.Append(float64(i))
	}
	tab, err := table.New("t", col)
	if err != nil {
		t.Fatal(err)
	}
	return table.NewSequentialScanner(tab)
}

func TestFailingScannerCutsStream(t *testing.T) {
	f := &FailingScanner{Inner: testScanner(t, 10), Limit: 3}
	var rows []int
	for {
		r, ok := f.Next()
		if !ok {
			break
		}
		rows = append(rows, r)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	if !f.Failed() {
		t.Error("failure should have triggered")
	}
	// Exhaustion is sticky.
	if _, ok := f.Next(); ok {
		t.Error("failed scanner should stay exhausted")
	}
	f.Reset()
	if f.Failed() {
		t.Error("Reset should rearm the failure")
	}
	if _, ok := f.Next(); !ok {
		t.Error("reset scanner should deliver rows again")
	}
}

func TestFailingScannerImmediate(t *testing.T) {
	f := &FailingScanner{Inner: testScanner(t, 10), Limit: 0}
	if _, ok := f.Next(); ok {
		t.Fatal("limit 0 should fail immediately")
	}
	if !f.Failed() {
		t.Error("failure should have triggered")
	}
}

func TestStallingScannerBlocksUntilRelease(t *testing.T) {
	s := NewStallingScanner(testScanner(t, 10), 2)
	for i := 0; i < 2; i++ {
		if _, ok := s.Next(); !ok {
			t.Fatalf("row %d should pass through", i)
		}
	}
	got := make(chan bool, 1)
	go func() {
		_, ok := s.Next()
		got <- ok
	}()
	select {
	case <-got:
		t.Fatal("Next should stall after the configured row count")
	case <-time.After(20 * time.Millisecond):
	}
	s.Release()
	s.Release() // idempotent
	select {
	case ok := <-got:
		if ok {
			t.Error("released stall should report exhaustion")
		}
	case <-time.After(time.Second):
		t.Fatal("Release did not unblock Next")
	}
}

func TestSlowScannerDelivers(t *testing.T) {
	s := &SlowScanner{Inner: testScanner(t, 3), Delay: time.Millisecond}
	n := 0
	for {
		if _, ok := s.Next(); !ok {
			break
		}
		n++
	}
	if n != 3 {
		t.Fatalf("got %d rows, want 3", n)
	}
}

func TestJitterClockMonotonic(t *testing.T) {
	sim := voice.NewSimClock()
	c := NewJitterClock(sim, 50*time.Millisecond, 7)
	last := c.Now()
	for i := 0; i < 1000; i++ {
		if i%10 == 0 {
			sim.Advance(time.Millisecond)
		}
		now := c.Now()
		if now.Before(last) {
			t.Fatalf("clock ran backwards: %v after %v", now, last)
		}
		last = now
	}
	// Jitter keeps readings within the bound of the base clock.
	base := sim.Now()
	if d := last.Sub(base); d < 0 || d > 50*time.Millisecond {
		t.Errorf("reading drifted %v from base, want within [0, 50ms]", d)
	}
}
