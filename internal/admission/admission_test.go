package admission

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestAcquireFastPathAndRelease(t *testing.T) {
	c := NewController(Config{Slots: 2})
	r1 := c.Acquire(context.Background(), "a")
	r2 := c.Acquire(context.Background(), "a")
	if r1.Ticket == nil || r2.Ticket == nil {
		t.Fatalf("free slots must admit: %v %v", r1.Shed, r2.Shed)
	}
	if got := c.InFlight(); got != 2 {
		t.Fatalf("InFlight = %d, want 2", got)
	}
	// Every slot is busy: the third request sheds immediately.
	r3 := c.Acquire(context.Background(), "a")
	if r3.Ticket != nil || r3.Shed != ShedQueueFull {
		t.Fatalf("saturated controller: got %v, want ShedQueueFull", r3.Shed)
	}
	r1.Ticket.Release()
	r1.Ticket.Release() // double release must be harmless
	if got := c.InFlight(); got != 1 {
		t.Fatalf("InFlight after release = %d, want 1", got)
	}
	r2.Ticket.Release()
}

// TestQueueFullSheds: a request that finds every slot busy is shed with the
// saturation reason, and the slot its holder frees admits the next one.
func TestQueueFullSheds(t *testing.T) {
	c := NewController(Config{Slots: 1})
	hold := c.Acquire(context.Background(), "a")
	if hold.Ticket == nil {
		t.Fatalf("holder not admitted: %v", hold.Shed)
	}
	if r := c.Acquire(context.Background(), "b"); r.Shed != ShedQueueFull {
		t.Errorf("over-capacity request shed = %v, want ShedQueueFull", r.Shed)
	}
	hold.Ticket.Release()
	r := c.Acquire(context.Background(), "b")
	if r.Ticket == nil {
		t.Fatalf("request after release shed with %v", r.Shed)
	}
	r.Ticket.Release()
}

func TestDrainShedsQueueAndRefusesNewWork(t *testing.T) {
	c := NewController(Config{Slots: 2})
	hold := c.Acquire(context.Background(), "a")
	if hold.Ticket == nil {
		t.Fatalf("holder not admitted: %v", hold.Shed)
	}
	c.Drain()
	// A free slot admits nothing once draining.
	if r := c.Acquire(context.Background(), "late"); r.Shed != ShedDraining {
		t.Errorf("post-drain acquire shed = %v, want ShedDraining", r.Shed)
	}
	// The in-flight ticket is unaffected and still releases.
	if got := c.InFlight(); got != 1 {
		t.Errorf("InFlight during drain = %d, want 1", got)
	}
	hold.Ticket.Release()
	if got := c.InFlight(); got != 0 {
		t.Errorf("InFlight after drain release = %d, want 0", got)
	}
}

func TestShedReasonStrings(t *testing.T) {
	want := map[ShedReason]string{
		ShedNone: "none", ShedQueueFull: "queue-full", ShedDraining: "draining",
	}
	for r, name := range want {
		if r.String() != name {
			t.Errorf("%d.String() = %q, want %q", r, r.String(), name)
		}
	}
}

// TestNoTenantStateOutlivesTheQueue: admitting or shedding a request leaves
// nothing behind, however many distinct tenants the callers name (the
// daemon's default tenant is the session).
func TestNoTenantStateOutlivesTheQueue(t *testing.T) {
	const oneShot = 10000
	c := NewController(Config{Slots: 1})
	for i := 0; i < oneShot; i++ {
		r := c.Acquire(context.Background(), fmt.Sprint("fast", i))
		if r.Ticket == nil {
			t.Fatalf("fast-path request %d shed with %v", i, r.Shed)
		}
		r.Ticket.Release()
	}
	hold := c.Acquire(context.Background(), "holder")
	for i := 0; i < oneShot; i++ {
		if r := c.Acquire(context.Background(), fmt.Sprint("shed", i)); r.Shed != ShedQueueFull {
			t.Fatalf("request %d at a busy slot: got %v, want ShedQueueFull", i, r.Shed)
		}
	}
	hold.Ticket.Release()
	if got := c.InFlight(); got != 0 {
		t.Fatalf("after %d fast-path and %d shed requests InFlight = %d, want 0", oneShot, oneShot, got)
	}
}

// TestSlotsBoundUnderConcurrentAcquire: 64 goroutines acquire and release
// 1 000 times each against four slots, and one of them drains the
// controller half way through. No more than four requests ever hold a slot
// at once, a refusal before the drain began is the saturation reason, any
// Acquire that starts after Drain returned is refused as draining, and
// every slot is released at the end.
func TestSlotsBoundUnderConcurrentAcquire(t *testing.T) {
	const slots, workers, perWorker = 4, 64, 1000
	c := NewController(Config{Slots: slots})
	var (
		held, highWater, ops        atomic.Int64
		admitted, full, draining    atomic.Int64
		drainStarted, drainReturned atomic.Bool
	)
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range perWorker {
				if ops.Add(1) == workers*perWorker/2 {
					drainStarted.Store(true)
					c.Drain()
					drainReturned.Store(true)
				}
				afterDrain := drainReturned.Load()
				r := c.Acquire(context.Background(), "t")
				if r.Ticket != nil {
					if afterDrain {
						t.Error("Acquire admitted after Drain returned")
					}
					admitted.Add(1)
					n := held.Add(1)
					for hw := highWater.Load(); n > hw && !highWater.CompareAndSwap(hw, n); hw = highWater.Load() {
					}
					runtime.Gosched() // let others find the slots busy
					held.Add(-1)
					r.Ticket.Release()
					continue
				}
				switch {
				case r.Shed == ShedQueueFull:
					full.Add(1)
					if afterDrain {
						t.Errorf("refusal after Drain returned is %v, want ShedDraining", r.Shed)
					}
				case r.Shed == ShedDraining:
					draining.Add(1)
					if !drainStarted.Load() {
						t.Error("refused as draining before Drain was called")
					}
				default:
					t.Errorf("refusal reason %v", r.Shed)
				}
			}
		}()
	}
	wg.Wait()
	if hw := highWater.Load(); hw > slots {
		t.Errorf("%d requests held a slot at once, want at most %d", hw, slots)
	}
	if got := c.InFlight(); got != 0 {
		t.Errorf("InFlight at the end = %d, want 0", got)
	}
	if admitted.Load() == 0 || full.Load() == 0 || draining.Load() == 0 {
		t.Errorf("admitted %d, shed full %d, shed draining %d: want each above 0",
			admitted.Load(), full.Load(), draining.Load())
	}
}
