package core

import (
	"context"
	"fmt"

	"repro/internal/belief"
	"repro/internal/olap"
	"repro/internal/speech"
)

// Vocalizer answers a query with voice output. Holistic (on either of its
// schedules) and Optimal implement it. They degrade instead of erroring when the context
// expires mid-run: the returned Output carries a grammar-valid speech (at
// minimum the preamble) with Degraded set.
type Vocalizer interface {
	// Name identifies the approach in experiment output.
	Name() string
	// Vocalize runs the approach and returns the spoken speech with
	// timing statistics.
	Vocalize() (*Output, error)
	// VocalizeContext is Vocalize under ctx.
	VocalizeContext(ctx context.Context) (*Output, error)
}

// Compile-time interface checks.
var (
	_ Vocalizer = (*Holistic)(nil)
	_ Vocalizer = (*Optimal)(nil)
)

// ExactQuality scores an output's speech against the exact query result
// using the paper's quality metric (Definition 2.2), with σ derived from
// the exact grand value unless cfg fixes it. It is how the experiments
// compare approaches on equal footing.
func ExactQuality(d *olap.Dataset, q olap.Query, out *Output, cfg Config) (float64, error) {
	cfg = cfg.Normalize()
	space, err := olap.NewSpace(d, q)
	if err != nil {
		return 0, fmt.Errorf("core: %w", err)
	}
	result, err := olap.EvaluateSpace(space)
	if err != nil {
		return 0, fmt.Errorf("core: %w", err)
	}
	model, err := belief.NewModel(space, sigmaFor(cfg.Sigma, result.GrandValue()))
	if err != nil {
		return 0, fmt.Errorf("core: %w", err)
	}
	// The output's speech references members of the same hierarchies, so
	// rebinding it to the fresh space is sound: scopes are member sets.
	return model.Quality(rebind(out.Speech, space), result), nil
}

// rebind refreshes refinement scope sizes against a space (scope sizes are
// already correct when the same space produced the speech; this guards
// speeches deserialized or built elsewhere).
func rebind(s *speech.Speech, space *olap.Space) *speech.Speech {
	cp := s.Clone()
	for i, r := range cp.Refinements {
		sz := space.ScopeSize(r.Preds)
		if sz != r.ScopeSize {
			rr := *r
			rr.ScopeSize = sz
			cp.Refinements[i] = &rr
		}
	}
	return cp
}
