package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNormalCDFKnownValues(t *testing.T) {
	std := Normal{Mu: 0, Sigma: 1}
	cases := []struct {
		x, want float64
	}{
		{0, 0.5},
		{1.959963984540054, 0.975},
		{-1.959963984540054, 0.025},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145707},
	}
	for _, c := range cases {
		if got := std.CDF(c.x); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("CDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestNormalProb(t *testing.T) {
	n := Normal{Mu: 0, Sigma: 1}
	if got := n.Prob(-1, 1); math.Abs(got-0.6826894921370859) > 1e-9 {
		t.Errorf("Prob(-1,1) = %v, want ~0.6827", got)
	}
	if got := n.Prob(1, -1); got != 0 {
		t.Errorf("Prob with hi<=lo = %v, want 0", got)
	}
	if got := n.Prob(2, 2); got != 0 {
		t.Errorf("Prob of empty interval = %v, want 0", got)
	}
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	n := Normal{Mu: 10, Sigma: 3}
	for _, p := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		x := n.Quantile(p)
		if got := n.CDF(x); math.Abs(got-p) > 1e-9 {
			t.Errorf("CDF(Quantile(%v)) = %v", p, got)
		}
	}
}

func TestNormalQuantilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for p=0")
		}
	}()
	Normal{Mu: 0, Sigma: 1}.Quantile(0)
}

// Property: CDF is monotone non-decreasing and bounded in [0,1].
func TestNormalCDFMonotoneProperty(t *testing.T) {
	f := func(mu float64, sigmaSeed float64, a, b float64) bool {
		if math.Abs(mu) > 1e9 || math.Abs(a) > 1e9 || math.Abs(b) > 1e9 || math.Abs(sigmaSeed) > 1e9 {
			return true
		}
		sigma := math.Abs(sigmaSeed) + 0.01
		n := Normal{Mu: mu, Sigma: sigma}
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		cl, ch := n.CDF(lo), n.CDF(hi)
		return cl <= ch+1e-12 && cl >= 0 && ch <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: Prob(lo,hi) equals CDF(hi)-CDF(lo) and is within [0,1].
func TestNormalProbConsistencyProperty(t *testing.T) {
	f := func(mu, sigmaSeed, a, b float64) bool {
		if math.Abs(mu) > 1e9 || math.Abs(a) > 1e9 || math.Abs(b) > 1e9 || math.Abs(sigmaSeed) > 1e9 {
			return true
		}
		sigma := math.Abs(sigmaSeed) + 0.01
		n := Normal{Mu: mu, Sigma: sigma}
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		p := n.Prob(lo, hi)
		return p >= 0 && p <= 1 && math.Abs(p-(n.CDF(hi)-n.CDF(lo))) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
