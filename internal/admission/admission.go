// Package admission is the overload gate between the HTTP handlers and
// the vocalizers. Voice OLAP is only usable if speech starts within an
// interactive deadline, so under overload the server refuses work early
// rather than letting every request crawl past its deadline together.
//
// A Controller bounds concurrent work to a fixed number of execution
// slots. Requests beyond them wait in a bounded queue that grants freed
// slots round-robin across tenants, so one chatty tenant cannot starve
// the others. The controller keeps state only for tenants that have queued
// since the queue was last empty: a tenant entering an empty queue starts
// fresh, and one joining a busy queue starts no lower than the waiting
// tenant with the fewest grants, so neither idling nor a past busy period
// banks credit. A request admitted at once or shed leaves nothing behind,
// however many distinct tenants the callers name. A request whose
// predicted queue wait already exceeds its remaining deadline is shed at
// once (better a fast 503 than a slow one), Drain sheds the queue for a
// graceful shutdown, and the load-derived RetryAfter tells shed clients
// when capacity is expected.
//
// The Controller is clock-injectable and free of HTTP types, so it unit
// tests deterministically.
package admission

import (
	"context"
	"sync"
	"time"
)

// ShedReason explains why Acquire refused a request.
type ShedReason int

const (
	// ShedNone means the request was admitted.
	ShedNone ShedReason = iota
	// ShedQueueFull means the fair queue was at capacity.
	ShedQueueFull
	// ShedDeadline means the predicted queue wait exceeded the request's
	// remaining deadline, so waiting could only produce a late answer.
	ShedDeadline
	// ShedDraining means the server is shutting down; queued waiters are
	// released unserved so the drain window goes to in-flight work.
	ShedDraining
	// ShedCanceled means the caller's context ended while queued (the
	// client went away).
	ShedCanceled
)

// String names the reason for counters and logs.
func (r ShedReason) String() string {
	switch r {
	case ShedNone:
		return "none"
	case ShedQueueFull:
		return "queue-full"
	case ShedDeadline:
		return "deadline"
	case ShedDraining:
		return "draining"
	case ShedCanceled:
		return "canceled"
	default:
		return "unknown"
	}
}

// Config tunes a Controller. The zero value admits 32 concurrent requests
// with no queue.
type Config struct {
	// Slots bounds concurrently admitted requests (default 32).
	Slots int
	// QueueDepth bounds waiters beyond the slots; 0 sheds immediately
	// once every slot is busy.
	QueueDepth int
	// Now is the clock, stubbed in tests (default time.Now).
	Now func() time.Time
}

// normalize fills defaults.
func (c Config) normalize() Config {
	if c.Slots <= 0 {
		c.Slots = 32
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// waiter is one queued request. granted is written under the controller
// mutex before ch is closed, so the woken goroutine reads it race-free.
type waiter struct {
	ch      chan struct{}
	granted bool
}

// tenantState is one tenant's queue, kept from the tenant's first queued
// request until the queue empties.
type tenantState struct {
	waiters []*waiter
	// pass counts the grants the tenant has received: the waiting tenant
	// with the lowest pass receives the next freed slot, so queued tenants
	// are served round-robin.
	pass int
}

// Controller is the tenant-aware admission gate. See the package comment.
type Controller struct {
	cfg Config

	mu       sync.Mutex
	inFlight int
	queued   int
	draining bool
	// tenants holds the state of the tenants queued since the queue was last
	// empty; it is emptied whenever the last waiter leaves.
	tenants map[string]*tenantState
	// ewma tracks recent service time for queue-wait prediction.
	ewma time.Duration
}

// NewController returns a controller for cfg.
func NewController(cfg Config) *Controller {
	return &Controller{cfg: cfg.normalize(), tenants: make(map[string]*tenantState)}
}

// Ticket is one admitted slot; Release it when the work completes.
type Ticket struct {
	c     *Controller
	start time.Time
	once  sync.Once
}

// Release frees the slot and feeds the held duration into the service-time
// estimate. Safe to call more than once.
func (t *Ticket) Release() {
	t.once.Do(func() {
		c := t.c
		c.mu.Lock()
		c.observeLocked(c.cfg.Now().Sub(t.start))
		c.releaseLocked()
		c.mu.Unlock()
	})
}

// Result reports an admission decision.
type Result struct {
	// Ticket is non-nil when the request was admitted.
	Ticket *Ticket
	// Shed explains a refusal when Ticket is nil.
	Shed ShedReason
	// Waited is the time spent queued before the decision.
	Waited time.Duration
}

// Acquire admits the tenant's request or sheds it. It blocks in the fair
// queue until a slot frees, the context ends, or the controller drains.
func (c *Controller) Acquire(ctx context.Context, tenant string) Result {
	c.mu.Lock()
	now := c.cfg.Now()
	if c.draining {
		c.mu.Unlock()
		return Result{Shed: ShedDraining}
	}
	// Fast path: a free slot and nobody queued ahead.
	if c.inFlight < c.cfg.Slots && c.queued == 0 {
		c.inFlight++
		c.mu.Unlock()
		return Result{Ticket: &Ticket{c: c, start: now}}
	}
	if c.queued >= c.cfg.QueueDepth {
		c.mu.Unlock()
		return Result{Shed: ShedQueueFull}
	}
	// Deadline-aware shed: if the predicted wait already exceeds the
	// remaining deadline, a queued answer could only arrive late.
	if dl, ok := ctx.Deadline(); ok {
		if est := c.estWaitLocked(); est > dl.Sub(now) {
			c.mu.Unlock()
			return Result{Shed: ShedDeadline}
		}
	}
	t := c.tenants[tenant]
	if t == nil {
		t = &tenantState{}
		c.tenants[tenant] = t
	}
	w := &waiter{ch: make(chan struct{})}
	if len(t.waiters) == 0 {
		// A tenant entering the queue starts at the current minimum pass,
		// so idling never banks credit.
		if min, ok := c.minActivePassLocked(); ok && min > t.pass {
			t.pass = min
		}
	}
	t.waiters = append(t.waiters, w)
	c.queued++
	c.mu.Unlock()

	select {
	case <-w.ch:
		waited := c.cfg.Now().Sub(now)
		c.mu.Lock()
		granted := w.granted
		c.mu.Unlock()
		if !granted {
			return Result{Shed: ShedDraining, Waited: waited}
		}
		return Result{Ticket: &Ticket{c: c, start: c.cfg.Now()}, Waited: waited}
	case <-ctx.Done():
		c.mu.Lock()
		if w.granted {
			// The grant raced the cancellation; give the slot onward.
			c.releaseLocked()
		} else {
			c.removeWaiterLocked(tenant, w)
		}
		c.mu.Unlock()
		return Result{Shed: ShedCanceled, Waited: c.cfg.Now().Sub(now)}
	}
}

// minActivePassLocked returns the lowest pass among tenants with waiters.
func (c *Controller) minActivePassLocked() (int, bool) {
	min, ok := 0, false
	for _, t := range c.tenants {
		if len(t.waiters) == 0 {
			continue
		}
		if !ok || t.pass < min {
			min, ok = t.pass, true
		}
	}
	return min, ok
}

// releaseLocked hands the freed slot to the fairest waiter, or frees it.
func (c *Controller) releaseLocked() {
	if c.grantLocked() {
		return
	}
	c.inFlight--
}

// grantLocked wakes the head waiter of the waiting tenant with the lowest
// pass; false when nobody is queued. The slot count is unchanged —
// the grant transfers the releasing request's slot.
func (c *Controller) grantLocked() bool {
	var best *tenantState
	for _, t := range c.tenants {
		if len(t.waiters) == 0 {
			continue
		}
		if best == nil || t.pass < best.pass {
			best = t
		}
	}
	if best == nil {
		return false
	}
	w := best.waiters[0]
	best.waiters = best.waiters[1:]
	best.pass++
	c.dequeuedLocked()
	w.granted = true
	close(w.ch)
	return true
}

// dequeuedLocked counts one waiter out of the queue and forgets every
// tenant once the queue is empty.
func (c *Controller) dequeuedLocked() {
	c.queued--
	if c.queued == 0 {
		clear(c.tenants)
	}
}

// removeWaiterLocked drops an abandoned waiter from its tenant queue.
func (c *Controller) removeWaiterLocked(tenant string, w *waiter) {
	t := c.tenants[tenant]
	if t == nil {
		return
	}
	for i, q := range t.waiters {
		if q == w {
			t.waiters = append(t.waiters[:i], t.waiters[i+1:]...)
			c.dequeuedLocked()
			return
		}
	}
}

// observeLocked folds one service time into the EWMA wait predictor.
func (c *Controller) observeLocked(d time.Duration) {
	if d < 0 {
		d = 0
	}
	if c.ewma == 0 {
		c.ewma = d
		return
	}
	c.ewma = (3*c.ewma + d) / 4
}

// estWaitLocked predicts the queue wait for a newly queued request: the
// requests ahead of it, pipelined across the slots, at the recent average
// service time.
func (c *Controller) estWaitLocked() time.Duration {
	if c.ewma == 0 {
		return 0
	}
	return time.Duration(float64(c.ewma) * float64(c.queued+1) / float64(c.cfg.Slots))
}

// RetryAfter derives the hint attached to shed responses from current
// load: the predicted time until a new arrival would reach a slot,
// clamped to [1s, 60s] so clients neither hammer nor give up.
func (c *Controller) RetryAfter() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	est := c.estWaitLocked()
	if est < time.Second {
		est = time.Second
	}
	if est > time.Minute {
		est = time.Minute
	}
	return est
}

// Drain sheds every queued waiter and refuses all future admissions, so a
// graceful shutdown spends its grace window on in-flight work only.
// In-flight tickets are unaffected.
func (c *Controller) Drain() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.draining = true
	for _, t := range c.tenants {
		for _, w := range t.waiters {
			close(w.ch) // granted stays false: the waiter sheds
		}
	}
	clear(c.tenants)
	c.queued = 0
}

// InFlight reports currently admitted (unreleased) requests.
func (c *Controller) InFlight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inFlight
}

// QueueLen reports currently queued waiters.
func (c *Controller) QueueLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.queued
}
