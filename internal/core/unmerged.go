package core

import (
	"context"
	"fmt"

	"repro/internal/mcts"
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
	cfg := s.cfg
	start := cfg.Clock.Now()

	if ctx.Err() != nil {
		sp := &speech.Speech{Preamble: s.gen.NewPreamble()}
		s.speaker.Start(sp.Text())
		return markDegraded(&Output{
			Speech:     sp,
			Latency:    cfg.Clock.Now().Sub(start),
			Transcript: s.speaker.Transcript(),
		}, ctx, u.dataset), nil
	}

	rowsRead := int64(s.sampler.ReadRowsContext(ctx, cfg.InitialRows))
	scale, ok := s.sampler.Cache().GrandEstimate()
	if !ok {
		scale = 0
	}
	if err := s.buildModel(scale); err != nil {
		return nil, err
	}
	tree, err := mcts.NewTreeWithCap(s.gen, speech.SpeechScale(scale), s.evalFunc(s.sampler.Cache()), s.rng, cfg.MaxTreeNodes)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	tree.UniformPolicy = cfg.UniformTreePolicy
	// Without pipelining there is nothing to overlap tree construction
	// with: its cost comes straight out of the interactivity budget.
	s.simCharge(tree.NodeCount())

	// Sample within the fixed budget; on a simulated clock each round
	// costs SimRoundCost, mirroring the holistic loop's accounting.
	var treeSamples int64
	deadline := start.Add(cfg.Budget)
	rounds := 0
	for cfg.Clock.Now().Before(deadline) {
		if ctx.Err() != nil {
			break
		}
		if cfg.MaxRoundsPerSentence > 0 && rounds >= cfg.MaxRoundsPerSentence {
			break
		}
		rowsRead += int64(s.sampler.ReadRowsContext(ctx, cfg.RowsPerRound))
		done, sampleErr := tree.SampleBatch(ctx, cfg.SamplesPerRound)
		treeSamples += int64(done)
		if sampleErr != nil {
			break
		}
		rounds++
		s.simAdvance()
	}

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
		TreeSamples:  treeSamples,
		Transcript:   s.speaker.Transcript(),
	}, ctx, u.dataset), nil
}
