package core

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/table"
)

// backgroundConfig runs on the real clock with a fast speaking rate so
// playback windows are short but real.
func backgroundConfig(seed int64) Config {
	return Config{
		Percents:             []int{50, 100},
		Seed:                 seed,
		SpeakingRate:         4000, // ~50 ms per sentence
		MaxRoundsPerSentence: 3000,
		MinRounds:            64,
		BackgroundSampling:   true,
	}
}

func TestBackgroundSamplingProducesSpeech(t *testing.T) {
	d, q := flightsQuery(t, 50000, 101)
	out, err := NewHolistic(d, q, backgroundConfig(1)).Vocalize()
	if err != nil {
		t.Fatalf("background holistic: %v", err)
	}
	if out.Speech.Baseline == nil {
		t.Fatal("no baseline")
	}
	if out.RowsRead == 0 {
		t.Error("background scan should have read rows")
	}
	if out.TreeSamples == 0 {
		t.Error("planner should have sampled the tree")
	}
	quality, err := ExactQuality(d, q, out, backgroundConfig(1))
	if err != nil {
		t.Fatalf("ExactQuality: %v", err)
	}
	if quality <= 0 {
		t.Errorf("quality = %v", quality)
	}
}

func TestBackgroundSamplingLatencyIsImmediate(t *testing.T) {
	d, q := flightsQuery(t, 100000, 102)
	out, err := NewHolistic(d, q, backgroundConfig(2)).Vocalize()
	if err != nil {
		t.Fatalf("background holistic: %v", err)
	}
	if out.Latency > 100*time.Millisecond {
		t.Errorf("latency %v should be immediate", out.Latency)
	}
	if !strings.HasPrefix(out.Transcript[0].Text, "Considering") {
		t.Error("preamble should speak first")
	}
}

func TestBackgroundSamplingWithUncertaintyWarn(t *testing.T) {
	d, q := flightsQuery(t, 50000, 103)
	cfg := backgroundConfig(3)
	cfg.Uncertainty = UncertaintyWarn
	out, err := NewHolistic(d, q, cfg).Vocalize()
	if err != nil {
		t.Fatalf("background holistic: %v", err)
	}
	// With 50k rows scanned in the background, confidence is high.
	if out.Warning != "" {
		t.Errorf("unexpected warning %q", out.Warning)
	}
}

func TestBackgroundSamplingWithBounds(t *testing.T) {
	d, q := flightsQuery(t, 50000, 104)
	cfg := backgroundConfig(4)
	cfg.Uncertainty = UncertaintyBounds
	out, err := NewHolistic(d, q, cfg).Vocalize()
	if err != nil {
		t.Fatalf("background holistic: %v", err)
	}
	if len(out.BoundsSpoken) == 0 {
		t.Error("bounds mode should speak intervals from the async cache")
	}
}

// TestScannerBuiltOncePerAnswer: an answer has one sample source, so the
// Config.Scanner factory runs once whether rows are read synchronously or
// from the background goroutine.
func TestScannerBuiltOncePerAnswer(t *testing.T) {
	d, q := flightsQuery(t, 2000, 106)
	for _, background := range []bool{false, true} {
		calls := 0
		cfg := testConfig(6)
		cfg.BackgroundSampling = background
		cfg.Scanner = func(tab *table.Table, rng *rand.Rand) table.Scanner {
			calls++
			return table.NewRandomScanner(tab, rng)
		}
		out, err := NewHolistic(d, q, cfg).VocalizeContext(context.Background())
		requireValidSpeech(t, out, err)
		if calls != 1 {
			t.Errorf("background=%v: Config.Scanner called %d times per answer, want 1", background, calls)
		}
	}
}

// TestInjectedStallHitsTheScannerTheAnswerReads: with every second scan
// stalled, the first answer reads a healthy stream and the second reads
// exactly the rows delivered before the stall — no fault is spent on a
// scanner nobody reads.
func TestInjectedStallHitsTheScannerTheAnswerReads(t *testing.T) {
	d, q := flightsQuery(t, 2000, 107)
	const stallAfter = 32
	for _, background := range []bool{false, true} {
		inj := faults.NewInjector(faults.InjectorOptions{
			StallEvery:   2,
			StallAfter:   stallAfter,
			StallRelease: 20 * time.Millisecond,
		})
		cfg := testConfig(7)
		cfg.BackgroundSampling = background
		cfg.Scanner = inj.Scanner
		healthy, err := NewHolistic(d, q, cfg).Vocalize()
		requireValidSpeech(t, healthy, err)
		stalled, err := NewHolistic(d, q, cfg).Vocalize()
		requireValidSpeech(t, stalled, err)
		if healthy.RowsRead <= stallAfter {
			t.Errorf("background=%v: first answer read %d rows, want a healthy scan", background, healthy.RowsRead)
		}
		if stalled.RowsRead != stallAfter {
			t.Errorf("background=%v: second answer read %d rows, want the %d before the stall",
				background, stalled.RowsRead, stallAfter)
		}
		if st := inj.Stats(); st.Scans != 2 || st.Stalled != 1 {
			t.Errorf("background=%v: injector built %d scans and stalled %d, want 2 and 1",
				background, st.Scans, st.Stalled)
		}
	}
}

// TestBackgroundSamplingShortScanSkipsInitialWait: a table smaller than
// InitialRows can never satisfy the initial-rows wait, so the planner must
// leave it when the scan ends instead of sitting out the 100 ms cap.
func TestBackgroundSamplingShortScanSkipsInitialWait(t *testing.T) {
	d, q := flightsQuery(t, 100, 108)
	cfg := Config{
		Percents:             []int{50, 100},
		Seed:                 8,
		SpeakingRate:         1e9,
		MinRounds:            1,
		MaxRoundsPerSentence: 1,
		BackgroundSampling:   true,
	}
	best := time.Hour
	for i := 0; i < 5; i++ {
		start := time.Now()
		out, err := NewHolistic(d, q, cfg).Vocalize()
		took := time.Since(start)
		requireValidSpeech(t, out, err)
		if out.RowsRead != 100 {
			t.Fatalf("read %d of 100 rows", out.RowsRead)
		}
		if took < best {
			best = took
		}
	}
	if best >= 50*time.Millisecond {
		t.Errorf("fastest of 5 answers over a 100-row table took %v, want well under the 100 ms wait cap", best)
	}
}
