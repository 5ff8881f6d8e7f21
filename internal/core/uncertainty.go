package core

import (
	"fmt"

	"repro/internal/speech"
)

// UncertaintyMode selects the Section 4.4 extension for transmitting
// confidence information.
type UncertaintyMode int

// Uncertainty modes. The zero mode speaks values without confidence
// information.
const (
	// UncertaintyWarn appends a general warning when confidence in the
	// spoken values is below a threshold.
	UncertaintyWarn UncertaintyMode = iota + 1
	// UncertaintyBounds speaks the confidence bounds where voice rendering
	// for the corresponding sentence starts.
	UncertaintyBounds
)

// confidenceLevel is the level of spoken bounds and of the warning's
// interval.
const confidenceLevel = 0.95

// uncertaintyWarning is the general low-confidence warning sentence.
const uncertaintyWarning = "Please note that confidence in the spoken values is still low."

// scopeAggs lists the aggregate indices a sentence speaks about: all
// aggregates for the baseline (nil refinement), the refinement's scope
// otherwise.
func (s *session) scopeAggs(r *speech.Refinement) []int {
	var out []int
	for a := 0; a < s.space.Size(); a++ {
		if r == nil || s.space.InScope(a, r.Preds) {
			out = append(out, a)
		}
	}
	return out
}

// boundsSentence renders the confidence bounds for the scope of a sentence,
// e.g. "Between one percent and three percent with 95 percent confidence.".
func (s *session) boundsSentence(r *speech.Refinement) (string, bool) {
	iv, ok := s.sampler.Cache().PooledConfidenceInterval(s.scopeAggs(r), confidenceLevel)
	if !ok {
		return "", false
	}
	return fmt.Sprintf("Between %s and %s with %d percent confidence.",
		speech.FormatValue(iv.Lo, s.cfg.Format),
		speech.FormatValue(iv.Hi, s.cfg.Format),
		int(confidenceLevel*100)), true
}

// minConfidentSample is the minimum in-scope sample size below which the
// warning always fires: a handful of rows can produce a degenerate
// zero-width interval (e.g. all-zero cancellation flags) that a CLT bound
// mistakes for certainty.
const minConfidentSample = 30

// lowConfidence reports whether the grand-scope confidence interval is
// wide relative to its center, triggering the warning mode.
func (s *session) lowConfidence() bool {
	cache := s.sampler.Cache()
	if cache.NrInScope() < minConfidentSample {
		return true
	}
	iv, ok := cache.PooledConfidenceInterval(s.scopeAggs(nil), confidenceLevel)
	if !ok {
		return true
	}
	center := iv.Center()
	if center == 0 {
		return iv.Width() > 0
	}
	rel := iv.Width() / center
	if rel < 0 {
		rel = -rel
	}
	return rel > s.cfg.WarnRelativeWidth
}
