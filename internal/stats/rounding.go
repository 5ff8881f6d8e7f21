package stats

import "math"

// RoundSig rounds x to the given number of significant decimal digits.
// RoundSig(0.0182, 1) == 0.02, RoundSig(5342, 2) == 5300. Zero, NaN and
// infinities are returned unchanged; digits < 1 is treated as 1.
func RoundSig(x float64, digits int) float64 {
	if x == 0 || math.IsNaN(x) || math.IsInf(x, 0) {
		return x
	}
	if digits < 1 {
		digits = 1
	}
	mag := math.Floor(math.Log10(math.Abs(x)))
	scale := math.Pow(10, float64(digits-1)-mag)
	return math.Round(x*scale) / scale
}
