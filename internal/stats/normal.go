// Package stats provides the small numerical toolkit the rest of the
// system builds on: normal distributions, streaming moment accumulators,
// entropy measures, and confidence intervals. The Go standard library has
// no statistics package, so the pieces needed by the user belief model and
// the sampling estimators are implemented here from scratch.
package stats

import (
	"fmt"
	"math"
)

// Normal is a normal (Gaussian) distribution with mean Mu and standard
// deviation Sigma. Sigma must be positive for its functions to be well
// defined.
type Normal struct {
	Mu    float64
	Sigma float64
}

// CDF returns P(X <= x).
func (n Normal) CDF(x float64) float64 {
	return 0.5 * math.Erfc(-(x-n.Mu)/(n.Sigma*math.Sqrt2))
}

// Prob returns P(lo <= X < hi). It returns 0 when hi <= lo.
func (n Normal) Prob(lo, hi float64) float64 {
	if hi <= lo {
		return 0
	}
	p := n.CDF(hi) - n.CDF(lo)
	if p < 0 {
		return 0
	}
	return p
}

// Quantile returns the x such that CDF(x) = p for p in (0, 1).
// It panics for p outside (0, 1).
func (n Normal) Quantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("stats: quantile probability %v out of (0,1)", p))
	}
	return n.Mu - n.Sigma*math.Sqrt2*math.Erfinv(1-2*p)
}
