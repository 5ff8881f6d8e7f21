package admission

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// fakeClock is a mutex-guarded manual clock for deterministic tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

// The base is the real present so context deadlines derived from fake
// readings are not already expired in real time (ctx timers run on the
// real clock even when the controller runs on this one).
func newFakeClock() *fakeClock { return &fakeClock{t: time.Now()} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never reached")
		}
		time.Sleep(time.Millisecond)
	}
}

// grant is one waiter's outcome, tagged with its tenant.
type grant struct {
	tenant string
	res    Result
}

// fillQueue admits one blocking ticket, then enqueues one waiter per
// listed tenant in order. Each waiter reports its outcome on the shared
// channel; since slots hand over one at a time (the test releases each
// granted ticket before reading the next grant), the channel order is the
// grant order.
func fillQueue(t *testing.T, c *Controller, tenants []string) (*Ticket, chan grant) {
	t.Helper()
	hold := c.Acquire(context.Background(), "holder")
	if hold.Ticket == nil {
		t.Fatalf("holder not admitted: %v", hold.Shed)
	}
	grants := make(chan grant, len(tenants))
	for i, tenant := range tenants {
		tenant := tenant
		go func() { grants <- grant{tenant, c.Acquire(context.Background(), tenant)} }()
		waitFor(t, func() bool { return c.QueueLen() == i+1 })
	}
	return hold.Ticket, grants
}

// nextGrant reads one granted waiter, failing on shed or timeout.
func nextGrant(t *testing.T, grants chan grant) grant {
	t.Helper()
	select {
	case g := <-grants:
		if g.res.Ticket == nil {
			t.Fatalf("waiter for %s shed with %v, want grant", g.tenant, g.res.Shed)
		}
		return g
	case <-time.After(5 * time.Second):
		t.Fatal("no grant arrived")
		return grant{}
	}
}

func TestAcquireFastPathAndRelease(t *testing.T) {
	clk := newFakeClock()
	c := NewController(Config{Slots: 2, Now: clk.Now})
	r1 := c.Acquire(context.Background(), "a")
	r2 := c.Acquire(context.Background(), "a")
	if r1.Ticket == nil || r2.Ticket == nil {
		t.Fatalf("free slots must admit: %v %v", r1.Shed, r2.Shed)
	}
	if got := c.InFlight(); got != 2 {
		t.Fatalf("InFlight = %d, want 2", got)
	}
	// No queue configured: the third request sheds immediately.
	r3 := c.Acquire(context.Background(), "a")
	if r3.Ticket != nil || r3.Shed != ShedQueueFull {
		t.Fatalf("saturated zero-queue controller: got %v, want ShedQueueFull", r3.Shed)
	}
	r1.Ticket.Release()
	r1.Ticket.Release() // double release must be harmless
	if got := c.InFlight(); got != 1 {
		t.Fatalf("InFlight after release = %d, want 1", got)
	}
	r2.Ticket.Release()
}

// TestFairQueueAlternatesTenants: every queued tenant gets one grant before
// any gets a second, whatever order the requests queued in.
func TestFairQueueAlternatesTenants(t *testing.T) {
	for _, tc := range []struct {
		queued []string
		rounds []string
	}{
		// Tenant a floods the queue with 4 requests before b's single one.
		{[]string{"a", "a", "a", "a", "b"}, []string{"ab", "a", "a", "a"}},
		{[]string{"a", "a", "a", "b", "b", "c"}, []string{"abc", "ab", "a"}},
	} {
		clk := newFakeClock()
		c := NewController(Config{Slots: 1, QueueDepth: 16, Now: clk.Now})
		hold, grants := fillQueue(t, c, tc.queued)
		hold.Release()
		for _, round := range tc.rounds {
			got := map[string]bool{}
			for range round {
				g := nextGrant(t, grants)
				got[g.tenant] = true
				g.res.Ticket.Release()
			}
			for _, tenant := range round {
				if !got[string(tenant)] {
					t.Errorf("queue %v: round %q granted %v, missing %c", tc.queued, round, got, tenant)
				}
			}
		}
	}
}

func TestQueueFullSheds(t *testing.T) {
	clk := newFakeClock()
	c := NewController(Config{Slots: 1, QueueDepth: 1, Now: clk.Now})
	hold, grants := fillQueue(t, c, []string{"a"})
	r := c.Acquire(context.Background(), "b")
	if r.Shed != ShedQueueFull {
		t.Errorf("over-capacity request shed = %v, want ShedQueueFull", r.Shed)
	}
	hold.Release()
	nextGrant(t, grants).res.Ticket.Release()
}

func TestDeadlineAwareShed(t *testing.T) {
	clk := newFakeClock()
	c := NewController(Config{Slots: 1, QueueDepth: 8, Now: clk.Now})
	// Teach the EWMA a 1s service time.
	tk := c.Acquire(context.Background(), "warm")
	clk.Advance(time.Second)
	tk.Ticket.Release()

	hold, grants := fillQueue(t, c, []string{"a"})

	// Predicted wait is ~2s (two ahead at 1s each on one slot); a request
	// with only 100ms of deadline left must shed immediately.
	ctx, cancel := context.WithDeadline(context.Background(), clk.Now().Add(100*time.Millisecond))
	defer cancel()
	if r := c.Acquire(ctx, "late"); r.Shed != ShedDeadline {
		t.Errorf("doomed request shed = %v, want ShedDeadline", r.Shed)
	}
	// A patient request still queues.
	ctx2, cancel2 := context.WithDeadline(context.Background(), clk.Now().Add(time.Hour))
	defer cancel2()
	done := make(chan Result, 1)
	go func() { done <- c.Acquire(ctx2, "patient") }()
	waitFor(t, func() bool { return c.QueueLen() == 2 })

	// Drain both waiters; the tied passes make their order
	// nondeterministic, so accept grants from either.
	hold.Release()
	for i := 0; i < 2; i++ {
		select {
		case g := <-grants:
			if g.res.Ticket == nil {
				t.Fatalf("waiter %s shed with %v", g.tenant, g.res.Shed)
			}
			g.res.Ticket.Release()
		case r := <-done:
			if r.Ticket == nil {
				t.Fatalf("patient waiter shed with %v", r.Shed)
			}
			r.Ticket.Release()
		case <-time.After(5 * time.Second):
			t.Fatal("waiter never granted")
		}
	}
}

func TestCanceledWaiterLeavesQueue(t *testing.T) {
	clk := newFakeClock()
	c := NewController(Config{Slots: 1, QueueDepth: 4, Now: clk.Now})
	hold := c.Acquire(context.Background(), "holder")
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan Result, 1)
	go func() { done <- c.Acquire(ctx, "gone") }()
	waitFor(t, func() bool { return c.QueueLen() == 1 })
	cancel()
	if r := <-done; r.Shed != ShedCanceled {
		t.Errorf("canceled waiter shed = %v, want ShedCanceled", r.Shed)
	}
	if got := c.QueueLen(); got != 0 {
		t.Errorf("QueueLen after cancel = %d, want 0", got)
	}
	// The slot still hands over cleanly afterwards.
	hold.Ticket.Release()
	if r := c.Acquire(context.Background(), "next"); r.Ticket == nil {
		t.Errorf("post-cancel acquire shed with %v", r.Shed)
	} else {
		r.Ticket.Release()
	}
}

func TestDrainShedsQueueAndRefusesNewWork(t *testing.T) {
	clk := newFakeClock()
	c := NewController(Config{Slots: 1, QueueDepth: 8, Now: clk.Now})
	hold, grants := fillQueue(t, c, []string{"a", "b"})
	c.Drain()
	for i := 0; i < 2; i++ {
		if g := <-grants; g.res.Shed != ShedDraining {
			t.Errorf("waiter %s shed = %v, want ShedDraining", g.tenant, g.res.Shed)
		}
	}
	if r := c.Acquire(context.Background(), "late"); r.Shed != ShedDraining {
		t.Errorf("post-drain acquire shed = %v, want ShedDraining", r.Shed)
	}
	// The in-flight ticket is unaffected and still releases.
	if got := c.InFlight(); got != 1 {
		t.Errorf("InFlight during drain = %d, want 1", got)
	}
	hold.Release()
	if got := c.InFlight(); got != 0 {
		t.Errorf("InFlight after drain release = %d, want 0", got)
	}
}

func TestRetryAfterGrowsWithLoad(t *testing.T) {
	clk := newFakeClock()
	c := NewController(Config{Slots: 1, QueueDepth: 16, Now: clk.Now})
	if got := c.RetryAfter(); got != time.Second {
		t.Errorf("idle RetryAfter = %v, want the 1s floor", got)
	}
	// Teach a 4s service time, then queue three waiters: the predicted
	// wait — and so the hint — should be far above the floor.
	tk := c.Acquire(context.Background(), "warm")
	clk.Advance(4 * time.Second)
	tk.Ticket.Release()
	hold, grants := fillQueue(t, c, []string{"a", "b", "c"})
	if got := c.RetryAfter(); got < 10*time.Second {
		t.Errorf("loaded RetryAfter = %v, want >= 10s (4s ewma x 4 ahead)", got)
	}
	hold.Release()
	for i := 0; i < 3; i++ {
		nextGrant(t, grants).res.Ticket.Release()
	}
}

func TestShedReasonStrings(t *testing.T) {
	want := map[ShedReason]string{
		ShedNone: "none", ShedQueueFull: "queue-full",
		ShedDeadline: "deadline", ShedDraining: "draining", ShedCanceled: "canceled",
	}
	for r, name := range want {
		if r.String() != name {
			t.Errorf("%d.String() = %q, want %q", r, r.String(), name)
		}
	}
}

// tenantCount reports how many tenants the controller keeps state for.
func tenantCount(c *Controller) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.tenants)
}

// TestNoTenantStateOutlivesTheQueue: only a queued request makes tenant
// state, and the state goes when the queue empties, whether its last waiter
// is granted, cancelled or drained. One-shot tenants (the daemon's default
// tenant is the session) therefore leave nothing behind.
func TestNoTenantStateOutlivesTheQueue(t *testing.T) {
	const oneShot = 10000
	clk := newFakeClock()
	c := NewController(Config{Slots: 1, Now: clk.Now})
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
			t.Fatalf("request %d at QueueDepth 0: got %v, want ShedQueueFull", i, r.Shed)
		}
	}
	hold.Ticket.Release()
	if n := tenantCount(c); n != 0 {
		t.Fatalf("after %d fast-path and %d shed requests the controller holds %d tenants, want 0", oneShot, oneShot, n)
	}

	// A burst from 100 tenants, three waiters each, queued behind one
	// held slot and served until the queue is empty.
	c = NewController(Config{Slots: 1, QueueDepth: 300, Now: clk.Now})
	var tenants []string
	for i := 0; i < 300; i++ {
		tenants = append(tenants, fmt.Sprint("burst", i%100))
	}
	held, grants := fillQueue(t, c, tenants)
	if n := tenantCount(c); n != 100 {
		t.Fatalf("the queued burst holds %d tenants, want 100", n)
	}
	held.Release()
	for range tenants {
		nextGrant(t, grants).res.Ticket.Release()
	}
	if n := tenantCount(c); n != 0 {
		t.Fatalf("after the burst drained the controller holds %d tenants, want 0", n)
	}

	// The queue's last waiter cancelled, and a queue shed by Drain.
	hold = c.Acquire(context.Background(), "holder")
	ctx, cancel := context.WithCancel(context.Background())
	canceled := make(chan Result, 1)
	go func() { canceled <- c.Acquire(ctx, "a") }()
	waitFor(t, func() bool { return c.QueueLen() == 1 })
	cancel()
	if r := <-canceled; r.Shed != ShedCanceled {
		t.Fatalf("cancelled waiter: got %v, want ShedCanceled", r.Shed)
	}
	hold.Ticket.Release()
	if n := tenantCount(c); n != 0 {
		t.Fatalf("after the last waiter cancelled the controller holds %d tenants, want 0", n)
	}
	held, grants = fillQueue(t, c, []string{"a", "b", "c"})
	c.Drain()
	for range 3 {
		if g := <-grants; g.res.Shed != ShedDraining {
			t.Fatalf("drained waiter for %s: got %v, want ShedDraining", g.tenant, g.res.Shed)
		}
	}
	held.Release()
	if n := tenantCount(c); n != 0 {
		t.Fatalf("after Drain the controller holds %d tenants, want 0", n)
	}
}
