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

// readAll empties s in reads of batch rows and returns how many it got.
func readAll(s table.Scanner, batch int) int {
	buf := make([]int, batch)
	total := 0
	for n := s.NextBatch(buf); n > 0; n = s.NextBatch(buf) {
		total += n
	}
	return total
}

func TestFailingScannerCutsStream(t *testing.T) {
	f := &FailingScanner{Inner: testScanner(t, 10), Limit: 3}
	if n := readAll(f, 2); n != 3 {
		t.Fatalf("got %d rows, want 3", n)
	}
	if !f.Failed() {
		t.Error("failure should have triggered")
	}
	// Exhaustion is sticky.
	if f.NextBatch(make([]int, 4)) != 0 {
		t.Error("failed scanner should stay exhausted")
	}
}

func TestFailingScannerImmediate(t *testing.T) {
	f := &FailingScanner{Inner: testScanner(t, 10), Limit: 0}
	if f.NextBatch(make([]int, 4)) != 0 {
		t.Fatal("limit 0 should fail immediately")
	}
	if !f.Failed() {
		t.Error("failure should have triggered")
	}
}

// TestFaultsCutAtTheirRowCount: read in the row worker's 64-row chunks, a
// failure or a stall after 100 rows delivers all 100 first, including the
// 36 of the short read that reaches the fault.
func TestFaultsCutAtTheirRowCount(t *testing.T) {
	f := &FailingScanner{Inner: testScanner(t, 1000), Limit: 100}
	if n := readAll(f, 64); n != 100 {
		t.Errorf("failing scanner delivered %d rows, want 100", n)
	}
	s := NewStallingScanner(testScanner(t, 1000), 100)
	buf := make([]int, 64)
	got := make(chan int, 1)
	go func() { got <- s.NextBatch(buf) + s.NextBatch(buf) }()
	select {
	case n := <-got:
		if n != 100 {
			t.Errorf("stalling scanner delivered %d rows before its stall, want 100", n)
		}
	case <-time.After(time.Second):
		s.Release()
		t.Fatalf("stalling scanner hung before delivering its 100 rows (%d once released)", <-got)
	}
	s.Release()
	if n := s.NextBatch(buf); n != 0 {
		t.Errorf("released stall delivered %d rows, want exhaustion", n)
	}
}

func TestStallingScannerBlocksUntilRelease(t *testing.T) {
	s := NewStallingScanner(testScanner(t, 10), 2)
	if n := s.NextBatch(make([]int, 4)); n != 2 {
		t.Fatalf("%d rows passed through, want 2", n)
	}
	got := make(chan int, 1)
	go func() { got <- s.NextBatch(make([]int, 4)) }()
	select {
	case <-got:
		t.Fatal("NextBatch should stall after the configured row count")
	case <-time.After(20 * time.Millisecond):
	}
	s.Release()
	s.Release() // idempotent
	select {
	case n := <-got:
		if n != 0 {
			t.Error("released stall should report exhaustion")
		}
	case <-time.After(time.Second):
		t.Fatal("Release did not unblock NextBatch")
	}
}

func TestSlowScannerDelivers(t *testing.T) {
	s := &SlowScanner{Inner: testScanner(t, 3), Delay: time.Millisecond}
	start := time.Now()
	if n := readAll(s, 2); n != 3 {
		t.Fatalf("got %d rows, want 3", n)
	}
	if took := time.Since(start); took < 3*time.Millisecond {
		t.Errorf("3 rows at 1ms each took %v", took)
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
