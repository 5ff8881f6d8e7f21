// Package admission is the overload gate between the HTTP handlers and
// the vocalizers. Voice OLAP is only usable if speech starts within an
// interactive deadline, so under overload the server refuses work early
// rather than letting every request crawl past its deadline together.
//
// A Controller is a counting semaphore over a fixed number of execution
// slots. A request that finds every slot busy is shed at once with the
// constant RetryAfter hint: a queue could only hold a cold answer
// behind other answers (EXPERIMENTS.md, "Admission under overload"), and
// repeated queries never reach admission, because the semantic cache
// answers them first. Drain refuses all new work for a graceful shutdown.
// The controller keeps no per-tenant state.
package admission

import (
	"context"
	"sync"
	"time"
)

// RetryAfter is the hint attached to shed responses. With no queue there
// is no wait to predict, so it is the back-off a shed client should take.
const RetryAfter = time.Second

// ShedReason explains why Acquire refused a request.
type ShedReason int

const (
	// ShedNone means the request was admitted.
	ShedNone ShedReason = iota
	// ShedQueueFull means every slot was busy. Its name and its string,
	// "queue-full", stay because the string is a /metrics label value.
	ShedQueueFull
	// ShedDraining means the server is shutting down; the drain window
	// goes to in-flight work.
	ShedDraining
)

// String names the reason for counters and logs.
func (r ShedReason) String() string {
	switch r {
	case ShedNone:
		return "none"
	case ShedQueueFull:
		return "queue-full"
	case ShedDraining:
		return "draining"
	default:
		return "unknown"
	}
}

// Config tunes a Controller. The zero value admits 32 concurrent requests.
type Config struct {
	// Slots bounds concurrently admitted requests (default 32).
	Slots int
}

// Controller is the admission gate. See the package comment.
type Controller struct {
	slots int

	mu       sync.Mutex
	inFlight int
	draining bool
}

// NewController returns a controller for cfg.
func NewController(cfg Config) *Controller {
	if cfg.Slots <= 0 {
		cfg.Slots = 32
	}
	return &Controller{slots: cfg.Slots}
}

// Ticket is one admitted slot; Release it when the work completes.
type Ticket struct {
	c    *Controller
	once sync.Once
}

// Release frees the slot. Safe to call more than once.
func (t *Ticket) Release() {
	t.once.Do(func() {
		t.c.mu.Lock()
		t.c.inFlight--
		t.c.mu.Unlock()
	})
}

// Result reports an admission decision.
type Result struct {
	// Ticket is non-nil when the request was admitted.
	Ticket *Ticket
	// Shed explains a refusal when Ticket is nil.
	Shed ShedReason
}

// Acquire admits a request to a free slot or sheds it at once; it never
// blocks. ctx and tenant are unused: they stay because
// benchmark/probes.go:315 and benchmark/trace.go:331 pass them, and
// ROADMAP item 1a(i) removes both.
func (c *Controller) Acquire(ctx context.Context, tenant string) Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case c.draining:
		return Result{Shed: ShedDraining}
	case c.inFlight >= c.slots:
		return Result{Shed: ShedQueueFull}
	}
	c.inFlight++
	return Result{Ticket: &Ticket{c: c}}
}

// Drain refuses all future admissions, so a graceful shutdown spends its
// grace window on in-flight work only. In-flight tickets are unaffected.
func (c *Controller) Drain() {
	c.mu.Lock()
	c.draining = true
	c.mu.Unlock()
}

// InFlight reports currently admitted (unreleased) requests.
func (c *Controller) InFlight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inFlight
}
