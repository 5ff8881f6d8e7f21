package faults

import (
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/table"
)

// InjectorOptions configures periodic scanner-fault injection for a live
// server: every Nth constructed scan is wrapped with the selected fault,
// so a chaos load run continuously mixes healthy and faulty queries.
type InjectorOptions struct {
	// SlowEvery wraps every Nth scan in a SlowScanner (0 disables).
	SlowEvery int
	// SlowDelay is the injected per-row latency (default 1ms).
	SlowDelay time.Duration
	// StallEvery wraps every Nth scan in a StallingScanner (0 disables).
	// Slow and stall injections count scans independently.
	StallEvery int
	// StallAfter is the row count delivered before the stall (default 32).
	StallAfter int
	// StallRelease auto-releases the stall after this delay so a
	// synchronous consumer is delayed, not wedged forever (default 1s;
	// the released scan reports exhaustion and the planner degrades).
	StallRelease time.Duration
	// FailEvery truncates every Nth scan with a FailingScanner (0
	// disables): the backend "dies" mid-stream and the planner sees a
	// short table.
	FailEvery int
	// FailAfter is the row count delivered before the failure (default
	// 128).
	FailAfter int
}

// normalize fills defaults.
func (o InjectorOptions) normalize() InjectorOptions {
	if o.SlowDelay <= 0 {
		o.SlowDelay = time.Millisecond
	}
	if o.StallAfter <= 0 {
		o.StallAfter = 32
	}
	if o.StallRelease <= 0 {
		o.StallRelease = time.Second
	}
	if o.FailAfter <= 0 {
		o.FailAfter = 128
	}
	return o
}

// Enabled reports whether any fault is configured.
func (o InjectorOptions) Enabled() bool {
	return o.SlowEvery > 0 || o.StallEvery > 0 || o.FailEvery > 0
}

// Injector counts scanner constructions and periodically injects faults.
// It is safe for concurrent use: a live server builds scanners from many
// request goroutines at once.
type Injector struct {
	opts  InjectorOptions
	scans atomic.Int64
}

// NewInjector returns an injector for opts.
func NewInjector(opts InjectorOptions) *Injector {
	return &Injector{opts: opts.normalize()}
}

// Scanner is a core.Config.Scanner-compatible factory: the default
// pseudo-random full-table scan, periodically wrapped with the configured
// faults.
func (in *Injector) Scanner(t *table.Table, rng *rand.Rand) table.Scanner {
	var s table.Scanner = table.NewRandomScanner(t, rng)
	n := in.scans.Add(1)
	if e := int64(in.opts.FailEvery); e > 0 && n%e == 0 {
		s = &FailingScanner{Inner: s, Limit: in.opts.FailAfter}
	}
	if e := int64(in.opts.StallEvery); e > 0 && n%e == 0 {
		st := NewStallingScanner(s, in.opts.StallAfter)
		// A synchronous consumer blocks inside NextBatch until the release
		// — a storage hang that heals — then sees exhaustion and degrades.
		time.AfterFunc(in.opts.StallRelease, st.Release)
		s = st
	}
	if e := int64(in.opts.SlowEvery); e > 0 && n%e == 0 {
		s = &SlowScanner{Inner: s, Delay: in.opts.SlowDelay}
	}
	return s
}
