package core

import (
	"context"

	"repro/internal/olap"
	"repro/internal/speech"
)

// Unmerged is the no-pipelining ablation: it samples the database and the
// speech tree exactly like Holistic, but only for a fixed interactivity
// budget (500 ms) before playback starts, and then commits to the entire
// speech at once. Without overlapping planning and voice output it sees
// far fewer samples per sentence, which is why its quality collapses in
// Figure 3.
type Unmerged struct {
	dataset *olap.Dataset
	query   olap.Query
	cfg     Config
}

// NewUnmerged returns an unmerged vocalizer for the query.
func NewUnmerged(d *olap.Dataset, q olap.Query, cfg Config) *Unmerged {
	return &Unmerged{dataset: d, query: q, cfg: cfg.Normalize()}
}

// Name identifies the approach in experiment output.
func (u *Unmerged) Name() string { return "unmerged" }

// Vocalize samples within the budget, then greedily descends the tree by
// mean reward and speaks the resulting complete speech.
func (u *Unmerged) Vocalize() (*Output, error) {
	return u.VocalizeContext(context.Background())
}

// VocalizeContext is Vocalize bound to ctx. Cancellation shortens the
// sampling budget and commits whatever the tree learned in time; an
// already-expired context degrades to a preamble-only speech rather than
// erroring.
func (u *Unmerged) VocalizeContext(ctx context.Context) (*Output, error) {
	s, err := newSession(u.dataset, u.query, u.cfg)
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
	rowsRead, scale, err := s.readInitialRows(ctx)
	if err != nil {
		return nil, err
	}
	// Without pipelining there is nothing to overlap tree construction
	// with: its cost comes straight out of the interactivity budget.
	tree, err := s.newTree(scale)
	if err != nil {
		return nil, err
	}
	defer tree.Release()
	// One planning window, open until the budget is spent.
	deadline := start.Add(cfg.Budget)
	w := s.plan(ctx, tree, func(int) bool { return s.cfg.Clock.Now().Before(deadline) })
	rowsRead += w.rows

	// Commit to the whole speech at once: greedy best-mean-reward descent.
	for {
		best := tree.BestChild()
		if best == nil || best.Visits == 0 {
			break
		}
		tree.Advance(best)
	}
	final := tree.Speech(tree.Root())
	if final.Baseline == nil {
		// Nothing was sampled in time; fall back to the first baseline so
		// some answer is spoken (quality will reflect the guess).
		if cands := s.gen.BaselineCandidates(speech.SpeechScale(scale)); len(cands) > 0 {
			final = final.Clone()
			final.Baseline = cands[0]
		}
	}
	s.speaker.Start(final.Text())
	latency := cfg.Clock.Now().Sub(start)

	return markDegraded(&Output{
		Speech:       final,
		Latency:      latency,
		PlanningTime: latency,
		RowsRead:     rowsRead,
		TreeSamples:  w.samples,
		Transcript:   s.speaker.Transcript(),
	}, ctx, u.dataset), nil
}
