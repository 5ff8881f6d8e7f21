package core

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/olap"
	"repro/internal/speech"
	"repro/internal/table"
	"repro/internal/voice"
)

// expiredContext returns a context that is already cancelled.
func expiredContext() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// requireDegradedValid asserts the degraded-output contract: no error, a
// grammar-valid speech with at least the preamble, and the Degraded flag.
func requireDegradedValid(t *testing.T, out *Output, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("VocalizeContext: %v (expired context must degrade, not error)", err)
	}
	if out == nil || out.Speech == nil {
		t.Fatal("degraded output must still carry a speech")
	}
	if out.Speech.Preamble == nil {
		t.Fatal("degraded speech must contain at least the preamble")
	}
	if !out.Degraded {
		t.Error("Degraded flag should be set")
	}
	if out.DegradeReason == "" {
		t.Error("DegradeReason should name the context error")
	}
	if !out.Speech.Valid(speech.DefaultPrefs()) {
		t.Errorf("degraded speech violates prefs: %q", out.Speech.MainText())
	}
	if !(speech.Parser{}).Conforms(out.Speech.Text()) {
		t.Errorf("degraded speech violates the grammar: %q", out.Speech.Text())
	}
}

func TestHolisticExpiredContextDegrades(t *testing.T) {
	d, q := flightsQuery(t, 20000, 51)
	out, err := NewHolistic(d, q, testConfig(1)).VocalizeContext(expiredContext())
	requireDegradedValid(t, out, err)
}

func TestUnmergedExpiredContextDegrades(t *testing.T) {
	d, q := flightsQuery(t, 20000, 51)
	out, err := NewUnmerged(d, q, testConfig(1)).VocalizeContext(expiredContext())
	requireDegradedValid(t, out, err)
}

func TestOptimalExpiredContextDegrades(t *testing.T) {
	d, q := flightsQuery(t, 5000, 51)
	out, err := NewOptimal(d, q, testConfig(1)).VocalizeContext(expiredContext())
	requireDegradedValid(t, out, err)
}

func TestVocalizeContextWithoutDeadlineIsUndegraded(t *testing.T) {
	d, q := flightsQuery(t, 20000, 51)
	out, err := NewHolistic(d, q, testConfig(1)).VocalizeContext(context.Background())
	if err != nil {
		t.Fatalf("VocalizeContext: %v", err)
	}
	if out.Degraded || out.DegradeReason != "" {
		t.Errorf("unconstrained run flagged degraded: %q", out.DegradeReason)
	}
	if len(out.Speech.Refinements) == 0 {
		t.Error("unconstrained run should add refinements")
	}
}

// cancelAfterClock cancels a context after a fixed number of clock reads,
// injecting a deterministic mid-planning cancellation: the planner reads
// the clock every round, so the cutoff lands inside the sampling loop.
type cancelAfterClock struct {
	inner  voice.Clock
	after  int
	calls  int
	cancel context.CancelFunc
}

func (c *cancelAfterClock) Now() time.Time {
	c.calls++
	if c.calls == c.after {
		c.cancel()
	}
	return c.inner.Now()
}

func (c *cancelAfterClock) Advance(d time.Duration) { c.inner.Advance(d) }

func TestHolisticCancelMidSpeechKeepsCommittedPrefix(t *testing.T) {
	d, q := flightsQuery(t, 20000, 51)

	// Reference run: no cancellation.
	full, err := NewHolistic(d, q, testConfig(1)).Vocalize()
	if err != nil {
		t.Fatalf("reference Vocalize: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := testConfig(1)
	cfg.Clock = &cancelAfterClock{inner: voice.NewSimClock(), after: 400, cancel: cancel}
	out, err := NewHolistic(d, q, cfg).VocalizeContext(ctx)
	requireDegradedValid(t, out, err)
	if got, want := len(out.Speech.Refinements), len(full.Speech.Refinements); got > want {
		t.Errorf("cancelled run spoke %d refinements, reference only %d", got, want)
	}
}

func TestOptimalCancelledSearchReturnsFallback(t *testing.T) {
	d, q := flightsQuery(t, 5000, 51)
	o := NewOptimal(d, q, testConfig(1))
	s, err := newSession(d, q, o.cfg)
	if err != nil {
		t.Fatalf("newSession: %v", err)
	}
	result, err := olap.EvaluateSpace(s.space)
	if err != nil {
		t.Fatalf("EvaluateSpace: %v", err)
	}
	scale := result.GrandValue()
	if err := s.buildModel(scale); err != nil {
		t.Fatalf("buildModel: %v", err)
	}
	preamble := s.gen.NewPreamble()

	fullBest, fullScored := o.searchBest(context.Background(), s, result, scale, preamble)
	if fullBest == nil || fullScored == 0 {
		t.Fatal("reference search scored nothing")
	}
	best, scored := o.searchBest(expiredContext(), s, result, scale, preamble)
	if best == nil {
		t.Fatal("cancelled search must still return a speech")
	}
	if scored >= fullScored {
		t.Errorf("cancelled search scored %d speeches, full search %d", scored, fullScored)
	}
	if !(speech.Parser{}).Conforms(best.Text()) {
		t.Errorf("fallback speech violates the grammar: %q", best.Text())
	}
}

// degradedPin is what a listener or a client reads of a degraded answer.
type degradedPin struct {
	latency, planning time.Duration
	rowsRead, samples int64
	utterances        int
	text              string
}

// pinDegraded returns what out says of a degraded answer, after checking the
// degraded-output contract.
func pinDegraded(t *testing.T, out *Output, err error) degradedPin {
	t.Helper()
	requireDegradedValid(t, out, err)
	return degradedPin{
		latency: out.Latency, planning: out.PlanningTime,
		rowsRead: out.RowsRead, samples: out.TreeSamples,
		utterances: len(out.Transcript), text: out.Text(),
	}
}

// cancellingScanner cancels its answer's context on its first batch and
// ends the stream there. The scan starts with the initial read, so that read
// ends with no row read and the context cancelled.
type cancellingScanner struct{ cancel context.CancelFunc }

func (s cancellingScanner) NextBatch([]int) int { s.cancel(); return 0 }

// tickClock is a simulated clock that also moves a millisecond on every
// read, so a latency counts the clock reads before it.
type tickClock struct{ *voice.SimClock }

func (c tickClock) Now() time.Time {
	c.Advance(time.Millisecond)
	return c.SimClock.Now()
}

// TestDegradedOutputsPinned pins the degraded answer of each vocalizer on an
// expired context, and of both Holistic schedules on a context cancelled
// during their initial read, field by field: latency, planning time, rows
// read, tree samples, utterances and text. Clock reads cost simulated time
// here, so an answer that read the clock before it noticed the context
// would speak later, and an answer that builds its tree pays SimNodeCost
// for each node of it.
func TestDegradedOutputsPinned(t *testing.T) {
	d, q := flightsQuery(t, 20000, 51)
	const preamble = "Considering flights starting from any airport, flights scheduled in any date and flights operated by any airline. Results are broken down by region and season."
	config := func() Config {
		cfg := testConfig(1)
		cfg.Clock = tickClock{voice.NewSimClock()}
		cfg.SimNodeCost = time.Microsecond
		return cfg
	}
	// Two clock reads, the answer's start and the preamble's, then nothing.
	want := degradedPin{latency: 2 * time.Millisecond, utterances: 1, text: preamble}
	for _, c := range []struct {
		name string
		run  func(context.Context) (*Output, error)
	}{
		{"holistic", NewHolistic(d, q, config()).VocalizeContext},
		{"unmerged", NewUnmerged(d, q, config()).VocalizeContext},
		{"optimal", NewOptimal(d, q, config()).VocalizeContext},
	} {
		out, err := c.run(expiredContext())
		if got := pinDegraded(t, out, err); got != want {
			t.Errorf("%s on an expired context:\n got %+v\nwant %+v", c.name, got, want)
		}
	}

	// Cancelled during its initial read, Holistic has spoken its preamble and
	// stops there. Unmerged has spoken nothing yet: it builds its tree of 677
	// nodes at 1 µs each, reads the clock once to open its window, finds the
	// window cancelled, and speaks the preamble with the baseline of a scale
	// it never estimated, in one piece, three clock reads and the tree after
	// it started.
	const unmergedLatency = 3*time.Millisecond + 677*time.Microsecond
	unmerged := degradedPin{latency: unmergedLatency, planning: unmergedLatency, utterances: 1,
		text: preamble + " Around zero percent is the average cancellation probability."}
	for _, c := range []struct {
		name string
		new  func(Config) Vocalizer
		want degradedPin
	}{
		{"holistic", func(cfg Config) Vocalizer { return NewHolistic(d, q, cfg) }, want},
		{"unmerged", func(cfg Config) Vocalizer { return NewUnmerged(d, q, cfg) }, unmerged},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		cfg := config()
		cfg.Scanner = func(*table.Table, *rand.Rand) table.Scanner { return cancellingScanner{cancel} }
		out, err := c.new(cfg).VocalizeContext(ctx)
		cancel()
		if got := pinDegraded(t, out, err); got != c.want {
			t.Errorf("%s cancelled during its initial read:\n got %+v\nwant %+v", c.name, got, c.want)
		}
	}
}
