package core

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/speech"
	"repro/internal/table"
	"repro/internal/voice"
)

// requireValidSpeech asserts a run produced a grammar-conforming speech
// (degraded or not) — the graceful-degradation contract under faults.
func requireValidSpeech(t *testing.T, out *Output, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("Vocalize under fault: %v (faults must degrade, not error)", err)
	}
	if out.Speech == nil || out.Speech.Preamble == nil {
		t.Fatal("faulted run must still produce a speech with a preamble")
	}
	if !out.Speech.Valid(speech.DefaultPrefs()) {
		t.Errorf("speech violates prefs: %q", out.Speech.MainText())
	}
	if !(speech.Parser{}).Conforms(out.Speech.Text()) {
		t.Errorf("speech violates the grammar: %q", out.Speech.Text())
	}
}

func TestHolisticSurvivesFailingScanner(t *testing.T) {
	d, q := flightsQuery(t, 20000, 51)
	for _, limit := range []int{0, 10, 500} {
		cfg := testConfig(1)
		cfg.Scanner = func(tab *table.Table, rng *rand.Rand) table.Scanner {
			return &faults.FailingScanner{Inner: table.NewRandomScanner(tab, rng), Limit: limit}
		}
		out, err := NewHolistic(d, q, cfg).Vocalize()
		requireValidSpeech(t, out, err)
		if out.RowsRead > int64(limit) {
			t.Errorf("limit %d: planner claims %d rows read", limit, out.RowsRead)
		}
	}
}

func TestUnmergedSurvivesFailingScanner(t *testing.T) {
	d, q := flightsQuery(t, 20000, 51)
	cfg := testConfig(1)
	cfg.Scanner = func(tab *table.Table, rng *rand.Rand) table.Scanner {
		return &faults.FailingScanner{Inner: table.NewRandomScanner(tab, rng), Limit: 50}
	}
	out, err := NewUnmerged(d, q, cfg).Vocalize()
	requireValidSpeech(t, out, err)
}

func TestHolisticSurvivesSlowScannerUnderDeadline(t *testing.T) {
	d, q := flightsQuery(t, 20000, 51)
	cfg := testConfig(1)
	cfg.Scanner = func(tab *table.Table, rng *rand.Rand) table.Scanner {
		return &faults.SlowScanner{Inner: table.NewRandomScanner(tab, rng), Delay: time.Millisecond}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	out, err := NewHolistic(d, q, cfg).VocalizeContext(ctx)
	requireValidSpeech(t, out, err)
	if !out.Degraded {
		t.Error("a 30ms deadline against a 1ms/row scanner should degrade")
	}
}

func TestHolisticSurvivesJitteryClock(t *testing.T) {
	d, q := flightsQuery(t, 20000, 51)
	cfg := testConfig(1)
	const jitter = 50 * time.Millisecond
	cfg.Clock = faults.NewJitterClock(voice.NewSimClock(), jitter, 7)
	out, err := NewHolistic(d, q, cfg).Vocalize()
	requireValidSpeech(t, out, err)
	// Every round's cost reaches the simulated clock under the jitter: the
	// two readings that bound the planning time are each off by at most
	// the jitter.
	rounds := out.TreeSamples / int64(cfg.Normalize().SamplesPerRound)
	if want := time.Duration(rounds)*simRoundCost - jitter; out.PlanningTime < want {
		t.Errorf("planning time %v over %d rounds, want at least %v: rounds were not charged to the clock",
			out.PlanningTime, rounds, want)
	}
}

// TestScannerBuiltOncePerAnswer: an answer has one sample source, so the
// Config.Scanner factory runs once per answer.
func TestScannerBuiltOncePerAnswer(t *testing.T) {
	d, q := flightsQuery(t, 2000, 106)
	calls := 0
	cfg := testConfig(6)
	cfg.Scanner = func(tab *table.Table, rng *rand.Rand) table.Scanner {
		calls++
		return table.NewRandomScanner(tab, rng)
	}
	out, err := NewHolistic(d, q, cfg).Vocalize()
	requireValidSpeech(t, out, err)
	if calls != 1 {
		t.Errorf("Config.Scanner called %d times per answer, want 1", calls)
	}
}

// TestInjectedStallHitsTheScannerTheAnswerReads: with every second scan
// stalled, the first answer reads a healthy stream and the second reads
// exactly the rows delivered before the stall — no fault is spent on a
// scanner nobody reads.
func TestInjectedStallHitsTheScannerTheAnswerReads(t *testing.T) {
	d, q := flightsQuery(t, 2000, 107)
	const stallAfter = 32
	inj := faults.NewInjector(faults.InjectorOptions{
		StallEvery:   2,
		StallAfter:   stallAfter,
		StallRelease: 20 * time.Millisecond,
	})
	cfg := testConfig(7)
	var scans, stalls int
	cfg.Scanner = func(t *table.Table, rng *rand.Rand) table.Scanner {
		s := inj.Scanner(t, rng)
		scans++
		if _, ok := s.(*faults.StallingScanner); ok {
			stalls++
		}
		return s
	}
	healthy, err := NewHolistic(d, q, cfg).Vocalize()
	requireValidSpeech(t, healthy, err)
	stalled, err := NewHolistic(d, q, cfg).Vocalize()
	requireValidSpeech(t, stalled, err)
	if healthy.RowsRead <= stallAfter {
		t.Errorf("first answer read %d rows, want a healthy scan", healthy.RowsRead)
	}
	if stalled.RowsRead != stallAfter {
		t.Errorf("second answer read %d rows, want the %d before the stall", stalled.RowsRead, stallAfter)
	}
	if scans != 2 || stalls != 1 {
		t.Errorf("injector built %d scans and stalled %d, want 2 and 1", scans, stalls)
	}
}
