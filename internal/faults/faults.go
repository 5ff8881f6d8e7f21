// Package faults provides fault-injection wrappers for the serving stack:
// table scanners that die, crawl, or hang mid-stream, and a clock with
// bounded jitter. Tests wrap the planner's row stream (via
// core.Config.Scanner) and clock with these to prove the vocalizers still
// emit grammar-valid speech — possibly degraded, never a hang or panic —
// under storage and timing failures.
package faults

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/table"
	"repro/internal/voice"
)

// FailingScanner passes exactly Limit rows through, then reports the stream
// exhausted forever, simulating a scan whose backend died mid-stream. The
// consumer sees a short table; Failed reports whether the injected failure
// actually triggered.
type FailingScanner struct {
	// Inner is the wrapped stream.
	Inner table.Scanner
	// Limit is the number of rows delivered before the failure (0 fails
	// immediately).
	Limit int

	emitted int
	failed  bool
}

// NextBatch implements table.Scanner.
func (f *FailingScanner) NextBatch(buf []int) int {
	if f.emitted >= f.Limit {
		f.failed = true
		return 0
	}
	n := f.Inner.NextBatch(buf[:min(len(buf), f.Limit-f.emitted)])
	f.emitted += n
	return n
}

// Failed reports whether the injected failure triggered.
func (f *FailingScanner) Failed() bool { return f.failed }

// SlowScanner delays every row it delivers by Delay, simulating a saturated
// or throttled storage backend.
type SlowScanner struct {
	// Inner is the wrapped stream.
	Inner table.Scanner
	// Delay is the per-row latency.
	Delay time.Duration
}

// NextBatch implements table.Scanner, sleeping Delay for each row read
// before it hands the batch over.
func (s *SlowScanner) NextBatch(buf []int) int {
	n := s.Inner.NextBatch(buf)
	time.Sleep(time.Duration(n) * s.Delay)
	return n
}

// StallingScanner delivers exactly After rows, then blocks every read until
// Release is called — a hung storage backend. Every consumer reads
// synchronously and hangs with it until the release (that is the point).
type StallingScanner struct {
	// Inner is the wrapped stream.
	Inner table.Scanner
	// After is the number of rows delivered before the stall.
	After int

	emitted int
	release chan struct{}
	once    sync.Once
}

// NewStallingScanner wraps inner, stalling after the given row count.
func NewStallingScanner(inner table.Scanner, after int) *StallingScanner {
	return &StallingScanner{Inner: inner, After: after, release: make(chan struct{})}
}

// NextBatch implements table.Scanner, blocking once the stall point is
// reached.
func (s *StallingScanner) NextBatch(buf []int) int {
	if s.emitted >= s.After {
		<-s.release
		return 0
	}
	n := s.Inner.NextBatch(buf[:min(len(buf), s.After-s.emitted)])
	s.emitted += n
	return n
}

// Release unblocks all present and future stalled reads, which then report
// exhaustion. Safe to call multiple times.
func (s *StallingScanner) Release() {
	s.once.Do(func() { close(s.release) })
}

// JitterClock wraps a clock and adds bounded pseudo-random jitter to every
// reading while keeping it monotonic — readings never run backwards, so
// playback deadlines still resolve. It simulates scheduling noise between
// the planner's clock reads.
type JitterClock struct {
	mu   sync.Mutex
	base voice.Clock
	max  time.Duration
	rng  *rand.Rand
	last time.Time
}

// Compile-time check: the jitter clock is a voice.Clock.
var _ voice.Clock = (*JitterClock)(nil)

// NewJitterClock wraps base, adding up to max jitter per reading, seeded
// deterministically.
func NewJitterClock(base voice.Clock, max time.Duration, seed int64) *JitterClock {
	return &JitterClock{base: base, max: max, rng: rand.New(rand.NewSource(seed))}
}

// Now implements voice.Clock.
func (c *JitterClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.base.Now()
	if c.max > 0 {
		t = t.Add(time.Duration(c.rng.Int63n(int64(c.max) + 1)))
	}
	if t.Before(c.last) {
		return c.last
	}
	c.last = t
	return t
}

// Advance implements voice.Clock by advancing the base clock.
func (c *JitterClock) Advance(d time.Duration) { c.base.Advance(d) }
