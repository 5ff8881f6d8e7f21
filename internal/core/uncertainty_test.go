package core

import (
	"strings"
	"testing"
)

func TestUncertaintyBoundsMode(t *testing.T) {
	d, q := flightsQuery(t, 20000, 71)
	cfg := testConfig(11)
	cfg.Uncertainty = UncertaintyBounds
	out, err := NewHolistic(d, q, cfg).Vocalize()
	if err != nil {
		t.Fatalf("holistic: %v", err)
	}
	if len(out.BoundsSpoken) == 0 {
		t.Fatal("bounds mode should speak confidence bounds")
	}
	// One bounds sentence per committed result sentence.
	if len(out.BoundsSpoken) != out.Speech.NumFragments() {
		t.Errorf("bounds sentences = %d, fragments = %d",
			len(out.BoundsSpoken), out.Speech.NumFragments())
	}
	for _, b := range out.BoundsSpoken {
		if !strings.HasPrefix(b, "Between ") || !strings.Contains(b, "confidence") {
			t.Errorf("malformed bounds sentence %q", b)
		}
	}
	// The transcript interleaves bounds before each sentence.
	if len(out.Transcript) != 1+out.Speech.NumFragments()+len(out.BoundsSpoken) {
		t.Errorf("transcript = %d utterances", len(out.Transcript))
	}
}

func TestUncertaintyWarnModeQuietWhenConfident(t *testing.T) {
	d, q := flightsQuery(t, 50000, 72)
	cfg := testConfig(12)
	cfg.Uncertainty = UncertaintyWarn
	// Generous sampling: tight intervals, no warning expected.
	cfg.MaxRoundsPerSentence = 3000
	cfg.RowsPerRound = 256
	out, err := NewHolistic(d, q, cfg).Vocalize()
	if err != nil {
		t.Fatalf("holistic: %v", err)
	}
	if out.Warning != "" {
		t.Errorf("well-sampled run should not warn, got %q", out.Warning)
	}
}

func TestUncertaintyWarnModeTriggersWhenStarved(t *testing.T) {
	d, q := flightsQuery(t, 50000, 73)
	cfg := testConfig(13)
	cfg.Uncertainty = UncertaintyWarn
	// Starve sampling and demand extreme precision.
	cfg.InitialRows = 8
	cfg.RowsPerRound = 1
	cfg.MinRounds = 1
	cfg.MaxRoundsPerSentence = 2
	cfg.WarnRelativeWidth = 0.0001
	out, err := NewHolistic(d, q, cfg).Vocalize()
	if err != nil {
		t.Fatalf("holistic: %v", err)
	}
	if out.Warning == "" {
		t.Error("starved run with strict threshold should warn")
	}
	last := out.Transcript[len(out.Transcript)-1]
	if last.Text != out.Warning {
		t.Error("warning should be the final utterance")
	}
}
