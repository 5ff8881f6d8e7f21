package core

import (
	"context"
	"fmt"

	"repro/internal/olap"
	"repro/internal/speech"
)

// Optimal is the quality-ceiling baseline: it evaluates the query exactly
// with a full table scan, then scores every candidate speech in the search
// space with the exact quality metric (Definition 2.2) before any voice
// output starts. Neither the data nor the plan space is sampled, so its
// latency grows with both — far past the interactivity threshold on large
// data, which is precisely the paper's Figure 3 finding.
type Optimal struct {
	dataset *olap.Dataset
	query   olap.Query
	cfg     Config
}

// NewOptimal returns an optimal vocalizer for the query.
func NewOptimal(d *olap.Dataset, q olap.Query, cfg Config) *Optimal {
	return &Optimal{dataset: d, query: q, cfg: cfg.Normalize()}
}

// Name identifies the approach in experiment output.
func (o *Optimal) Name() string { return "optimal" }

// Vocalize exhaustively searches the speech space against the exact query
// result and then speaks the best speech in one piece.
func (o *Optimal) Vocalize() (*Output, error) {
	return o.VocalizeContext(context.Background())
}

// VocalizeContext is Vocalize bound to ctx. Cancellation mid-search
// returns the best speech scored so far, flagged degraded; an
// already-expired context degrades to a preamble-only speech. The exact
// scan itself is not interruptible — only the (much larger) plan-space
// enumeration checks the context.
func (o *Optimal) VocalizeContext(ctx context.Context) (*Output, error) {
	s, err := newSession(o.dataset, o.query, o.cfg)
	if err != nil {
		return nil, err
	}
	defer s.release()
	cfg := s.cfg
	start := cfg.Clock.Now()
	if ctx.Err() != nil {
		preamble, latency := s.speakPreamble(start)
		return s.preambleOnly(ctx, preamble, latency, 0), nil
	}

	// Exact query evaluation: the full scan the holistic approach avoids.
	result, err := olap.EvaluateSpace(s.space)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	scale := result.GrandValue()
	if err := s.buildModel(scale); err != nil {
		return nil, err
	}

	best, scored := o.searchBest(ctx, s, result, scale, s.gen.NewPreamble())
	// The menu goes to the next answer with the session: the speech keeps
	// copies of its refinements.
	speech.Detach(best.Refinements)

	s.speaker.Start(best.Text())
	latency := cfg.Clock.Now().Sub(start)

	return markDegraded(&Output{
		Speech:         best,
		Latency:        latency,
		PlanningTime:   latency,
		RowsRead:       result.RowsRead(),
		SpeechesScored: scored,
		Transcript:     s.speaker.Transcript(),
	}, ctx, o.dataset), nil
}

// searchBest exhaustively enumerates every valid speech (all baselines
// that fit the preferences, all refinement chains up to the limits —
// including shorter prefixes, since an extra refinement can hurt quality)
// and returns the maximizer of exact quality. Cancellation is checked every
// few hundred scored speeches and cuts the enumeration short, returning the
// best so far.
//
// Scoring goes through belief.Scorer's incremental apply/undo API: the DFS
// pushes each candidate refinement as one bitset sweep off its parent's
// means vector instead of rebuilding every mean per candidate. The scorer
// reproduces Model.Quality bit for bit (same additions, same order), and
// the enumeration order and the strict ">" comparison are unchanged, so
// the chosen speech is identical to the scalar search's — only faster.
func (o *Optimal) searchBest(ctx context.Context, s *session, result *olap.Result, scale float64, preamble *speech.Preamble) (*speech.Speech, int64) {
	const checkEvery = 256
	sc := s.model.NewScorer(result)
	var best *speech.Speech
	bestQ := -1.0
	var scored int64
	cancelled := false

	var extend func(sp *speech.Speech)
	extend = func(sp *speech.Speech) {
		if cancelled {
			return
		}
		if scored%checkEvery == 0 && ctx.Err() != nil {
			cancelled = true
			return
		}
		q := sc.Quality()
		scored++
		if q > bestQ {
			bestQ = q
			best = sp
		}
		if len(sp.Refinements) >= s.cfg.Prefs.MaxFragments {
			return
		}
		for _, r := range s.gen.Refinements(sp.Refinements) {
			ext := sp.Extend(r)
			if ext.Valid(s.cfg.Prefs) {
				sc.Push(r)
				extend(ext)
				sc.Pop()
			}
		}
	}
	for _, b := range s.gen.BaselineCandidates(speech.SpeechScale(scale)) {
		if cancelled {
			break
		}
		sp := &speech.Speech{Preamble: preamble, Baseline: b}
		if !sp.Valid(s.cfg.Prefs) {
			continue
		}
		sc.Reset(sp)
		extend(sp)
	}
	if best == nil {
		best = &speech.Speech{Preamble: preamble}
	}
	return best, scored
}
