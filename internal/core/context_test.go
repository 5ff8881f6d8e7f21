package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/olap"
	"repro/internal/speech"
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
