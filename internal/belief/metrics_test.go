package belief

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/stats"
)

// metricsEnv builds the standard test environment plus a truthful and a
// wrong speech.
func TestMetricsAgreeOnTruthfulVsWrong(t *testing.T) {
	e := newEnv(t)
	grand := e.result.GrandValue()
	truthful := e.baselineSpeech(stats.RoundSig(grand, 2))
	wrong := e.baselineSpeech(stats.RoundSig(grand*10, 2))

	if got, bad := e.model.LogLoss(truthful, e.result), e.model.LogLoss(wrong, e.result); got <= bad {
		t.Errorf("log loss: truthful %v should beat wrong %v", got, bad)
	}
	if got, bad := e.model.ExpectedAbsError(truthful, e.result), e.model.ExpectedAbsError(wrong, e.result); got >= bad {
		t.Errorf("expected abs error: truthful %v should be below wrong %v", got, bad)
	}
	if got, bad := e.model.CRPS(truthful, e.result), e.model.CRPS(wrong, e.result); got >= bad {
		t.Errorf("CRPS: truthful %v should be below wrong %v", got, bad)
	}
}

// TestExpectedAbsErrorClosedForm cross-checks the folded-normal formula
// against Monte Carlo sampling.
func TestExpectedAbsErrorClosedForm(t *testing.T) {
	cases := []struct{ mu, sigma, v float64 }{
		{0, 1, 0},
		{0, 1, 2},
		{5, 2, 3},
		{-1, 0.5, 1},
	}
	rng := rand.New(rand.NewSource(1))
	for _, c := range cases {
		b := stats.Normal{Mu: c.mu, Sigma: c.sigma}
		d := c.mu - c.v
		z := d / c.sigma
		closed := c.sigma*math.Sqrt(2/math.Pi)*math.Exp(-z*z/2) + d*(1-2*stdNormalCDF(-z))
		var mc float64
		const samples = 200000
		for i := 0; i < samples; i++ {
			mc += math.Abs(b.Mu + b.Sigma*rng.NormFloat64() - c.v)
		}
		mc /= samples
		if math.Abs(closed-mc) > 0.02*c.sigma+0.002 {
			t.Errorf("N(%v,%v) vs %v: closed %v, MC %v", c.mu, c.sigma, c.v, closed, mc)
		}
	}
}

// TestCRPSProperties: CRPS is nonnegative, zero only in the degenerate
// limit, and minimized when the belief centers on the truth.
func TestCRPSProperties(t *testing.T) {
	e := newEnv(t)
	grand := e.result.GrandValue()
	centered := e.baselineSpeech(grand)
	offAbove := e.baselineSpeech(grand * 3)
	if e.model.CRPS(centered, e.result) < 0 {
		t.Error("CRPS must be nonnegative")
	}
	if e.model.CRPS(centered, e.result) >= e.model.CRPS(offAbove, e.result) {
		t.Error("centered belief should have lower CRPS")
	}
}

// TestMetricsRankSpeechesConsistently: across a set of candidate speeches,
// the alternative metrics should broadly agree with Quality on which
// speeches are good — pairwise rank agreement above chance.
func TestMetricsRankSpeechesConsistently(t *testing.T) {
	e := newEnv(t)
	grand := e.result.GrandValue()
	cands := e.gen.Refinements(nil)
	var speeches []*struct {
		q, crps float64
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20; i++ {
		sp := e.baselineSpeech(stats.RoundSig(grand*(0.5+rng.Float64()), 1))
		if i%2 == 0 {
			sp = sp.Extend(cands[rng.Intn(len(cands))])
		}
		speeches = append(speeches, &struct{ q, crps float64 }{
			q:    e.model.Quality(sp, e.result),
			crps: e.model.CRPS(sp, e.result),
		})
	}
	agree, total := 0, 0
	for i := 0; i < len(speeches); i++ {
		for j := i + 1; j < len(speeches); j++ {
			a, b := speeches[i], speeches[j]
			if a.q == b.q {
				continue
			}
			total++
			// Higher quality should mean lower CRPS.
			if (a.q > b.q) == (a.crps < b.crps) {
				agree++
			}
		}
	}
	if total == 0 {
		t.Skip("no comparable pairs")
	}
	if frac := float64(agree) / float64(total); frac < 0.6 {
		t.Errorf("quality/CRPS rank agreement = %.2f, want above 0.6", frac)
	}
}

func TestStdNormalHelpers(t *testing.T) {
	if math.Abs(stdNormalCDF(0)-0.5) > 1e-12 {
		t.Error("Φ(0) != 0.5")
	}
	if math.Abs(stdNormalPDF(0)-1/math.Sqrt(2*math.Pi)) > 1e-12 {
		t.Error("φ(0) wrong")
	}
}
