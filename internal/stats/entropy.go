package stats

import "math"

// Entropy returns the Shannon entropy (in nats) of the probability vector p.
// Entries that are zero contribute nothing; negative entries are treated as
// zero. The vector need not be normalized: it is normalized internally, and
// an all-zero vector yields entropy 0.
func Entropy(p []float64) float64 {
	var total float64
	for _, v := range p {
		if v > 0 {
			total += v
		}
	}
	if total == 0 {
		return 0
	}
	var h float64
	for _, v := range p {
		if v <= 0 {
			continue
		}
		q := v / total
		h -= q * math.Log(q)
	}
	return h
}

// NormalizedEntropy returns Entropy(p) scaled to [0, 1] by the maximum
// possible entropy log(len(p)). A uniform vector yields 1. Vectors of length
// zero or one yield 0.
func NormalizedEntropy(p []float64) float64 {
	if len(p) < 2 {
		return 0
	}
	return Entropy(p) / math.Log(float64(len(p)))
}
