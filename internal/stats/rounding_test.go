package stats

import (
	"math"
	"testing"
)

func TestRoundSig(t *testing.T) {
	cases := []struct {
		x      float64
		digits int
		want   float64
	}{
		{0.0182, 1, 0.02},
		{0.0182, 2, 0.018},
		{5342, 2, 5300},
		{5342, 1, 5000},
		{0.055, 1, 0.06},
		{-0.0182, 1, -0.02},
		{90000, 1, 90000},
		{94999, 1, 90000},
		{95001, 1, 100000},
		{0, 3, 0},
		{1.5, 2, 1.5},
	}
	for _, c := range cases {
		if got := RoundSig(c.x, c.digits); math.Abs(got-c.want) > math.Abs(c.want)*1e-9+1e-15 {
			t.Errorf("RoundSig(%v, %d) = %v, want %v", c.x, c.digits, got, c.want)
		}
	}
}

func TestRoundSigSpecials(t *testing.T) {
	if !math.IsNaN(RoundSig(math.NaN(), 1)) {
		t.Error("NaN should pass through")
	}
	if !math.IsInf(RoundSig(math.Inf(1), 1), 1) {
		t.Error("Inf should pass through")
	}
	if got := RoundSig(123, 0); got != 100 {
		t.Errorf("digits<1 should clamp to 1, got %v", got)
	}
}
