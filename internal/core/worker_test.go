package core

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/table"
)

// TestNoGoroutineOutlivesAnswer: the row worker an answer starts is stopped
// and joined before the answer returns, whether the answer ran its course,
// found its context expired before it began, or gave up on a scan that hung
// past its deadline. The hung scan holds the answer until it is released.
func TestNoGoroutineOutlivesAnswer(t *testing.T) {
	d, q := flightsQuery(t, 20000, 51)
	base := runtime.NumGoroutine()
	settled := func(when string) {
		t.Helper()
		// A joined worker has signalled its exit and may still be on its way
		// out; it must not stay.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Errorf("%s: %d goroutines, %d before", when, n, base)
		}
	}

	out, err := NewHolistic(d, q, testConfig(1)).Vocalize()
	requireValidSpeech(t, out, err)
	settled("after an answer")
	out, err = NewUnmerged(d, q, testConfig(1)).Vocalize()
	requireValidSpeech(t, out, err)
	settled("after an unmerged answer")

	out, err = NewHolistic(d, q, testConfig(1)).VocalizeContext(expiredContext())
	requireDegradedValid(t, out, err)
	settled("after an answer whose context had expired")

	stall := faults.NewStallingScanner(nil, 100)
	cfg := testConfig(1)
	cfg.Scanner = func(tab *table.Table, rng *rand.Rand) table.Scanner {
		stall.Inner = table.NewRandomScanner(tab, rng)
		return stall
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	const hold = 150 * time.Millisecond
	start := time.Now()
	time.AfterFunc(hold, stall.Release)
	out, err = NewHolistic(d, q, cfg).VocalizeContext(ctx)
	requireDegradedValid(t, out, err)
	if took := time.Since(start); took < hold {
		t.Errorf("the answer returned after %v, before its hung scan was released at %v", took, hold)
	}
	if out.RowsRead != 100 {
		t.Errorf("the answer read %d rows, want the 100 delivered before the hang", out.RowsRead)
	}
	settled("after an answer whose scan hung")
}
