package sampling

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/olap"
	"repro/internal/table"
)

// TestParkedReadReturnsOnCancel: a read that waits for a worker stuck in a
// hung scan returns with the rows classified so far as soon as its context
// ends, and Stop returns once the scan does.
func TestParkedReadReturnsOnCancel(t *testing.T) {
	s := flightsSpace(t, olap.Avg)
	stall := faults.NewStallingScanner(table.NewRandomScanner(s.Dataset().Table(), rand.New(rand.NewSource(3))), 100)
	smp, err := NewSamplerWithScanner(s, stall)
	if err != nil {
		t.Fatal(err)
	}
	smp.Start()
	ctx, cancel := context.WithCancel(context.Background())
	const wait = 30 * time.Millisecond
	time.AfterFunc(wait, cancel)
	start := time.Now()
	// The worker publishes all 100 rows, a full chunk and a short one, and
	// hangs on its next read.
	if got := smp.ReadRowsContext(ctx, 4096); got != 100 {
		t.Errorf("read %d rows before the cancel, want the 100 before the stall", got)
	}
	if took := time.Since(start); took > wait+time.Second {
		t.Errorf("the read returned %v after a cancel at %v", took, wait)
	}
	stopped := make(chan struct{})
	go func() {
		smp.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
		t.Fatal("Stop returned while the worker's scan hangs")
	case <-time.After(20 * time.Millisecond):
	}
	stall.Release()
	<-stopped
}

// panicScanner panics on its first read.
type panicScanner struct{}

func (panicScanner) NextBatch([]int) int { panic("scan failed") }

// TestWorkerPanicReachesReader: a scanner that panics on the worker's
// goroutine panics the read that waits for it, where the caller can recover
// as it could before the worker existed, and Stop still returns.
func TestWorkerPanicReachesReader(t *testing.T) {
	smp, err := NewSamplerWithScanner(flightsSpace(t, olap.Avg), panicScanner{})
	if err != nil {
		t.Fatal(err)
	}
	smp.Start()
	defer smp.Stop()
	defer func() {
		if r := recover(); r != "scan failed" {
			t.Errorf("read recovered %v, want the scanner's panic", r)
		}
	}()
	smp.ReadRows(1)
	t.Error("the read returned")
}
