package sampling

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/olap"
	"repro/internal/table"
)

func TestAsyncSamplerConcurrentStop(t *testing.T) {
	s := flightsSpace(t, olap.Avg)
	a := newAsync(t, s, rand.New(rand.NewSource(21)), 64)
	a.Start()
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a.Stop()
		}()
	}
	wg.Wait()
}

func TestAsyncSamplerStartContextCancelHaltsScan(t *testing.T) {
	s := flightsSpace(t, olap.Avg)
	a := newAsync(t, s, rand.New(rand.NewSource(22)), 16)
	ctx, cancel := context.WithCancel(context.Background())
	a.StartContext(ctx)
	deadline := time.Now().Add(5 * time.Second)
	for a.NrRead() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case <-a.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("scan loop did not exit after context cancellation")
	}
	read := a.NrRead()
	if read == 0 {
		t.Fatal("scan never started")
	}
	time.Sleep(10 * time.Millisecond)
	if got := a.NrRead(); got != read {
		t.Errorf("rows kept accumulating after cancel: %d -> %d", read, got)
	}
	// Stop after a cancelled run must not deadlock.
	a.Stop()
}

func TestAsyncSamplerStopWithinAbandonsStalledScan(t *testing.T) {
	s := flightsSpace(t, olap.Avg)
	stall := faults.NewStallingScanner(
		table.NewRandomScanner(s.Dataset().Table(), rand.New(rand.NewSource(23))), 32)
	a := newAsyncOver(t, s, stall, 16)
	a.Start()
	deadline := time.Now().Add(5 * time.Second)
	for a.NrRead() < 32 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if ok := a.StopWithin(50 * time.Millisecond); ok {
		t.Fatal("StopWithin reported a clean exit while the scanner was stalled")
	}
	// Unblocking the scanner lets the abandoned goroutine drain and exit.
	stall.Release()
	select {
	case <-a.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("abandoned scan goroutine never exited after Release")
	}
	if ok := a.StopWithin(time.Second); !ok {
		t.Error("second StopWithin should observe the finished goroutine")
	}
}

func TestReadRowsContextHonoursCancellation(t *testing.T) {
	s := flightsSpace(t, olap.Avg)
	smp, err := NewSampler(s, rand.New(rand.NewSource(24)))
	if err != nil {
		t.Fatalf("NewSampler: %v", err)
	}
	if got := smp.ReadRowsContext(context.Background(), 100); got != 100 {
		t.Fatalf("ReadRowsContext(background) read %d of 100 rows", got)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// The cancellation check runs before the first row of each 64-row
	// stride, so an already-cancelled context reads nothing.
	if got := smp.ReadRowsContext(ctx, 10000); got != 0 {
		t.Errorf("cancelled read consumed %d rows", got)
	}
}
