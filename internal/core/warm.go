package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/mcts"
	"repro/internal/olap"
	"repro/internal/sampling"
	"repro/internal/speech"
)

// Warm is the holistic vocalizer backed by a materialized sample view
// instead of on-line scanning — the Section 4.3 extension for estimating
// particularly small data subsets. The view is built once (a full scan)
// for an anticipated query; every later vocalization of that query starts
// with complete per-aggregate estimates and exact counts, so even rare
// subpopulations can be refined in the very first sentence.
type Warm struct {
	dataset *olap.Dataset
	view    *sampling.View
	cfg     Config
}

// NewWarm returns a warm-start vocalizer over a prebuilt view. The view's
// space determines the query.
func NewWarm(d *olap.Dataset, view *sampling.View, cfg Config) *Warm {
	return &Warm{dataset: d, view: view, cfg: cfg.Normalize()}
}

// Name identifies the approach in experiment output.
func (w *Warm) Name() string { return "warm" }

// Query returns the query the view was materialized for.
func (w *Warm) Query() olap.Query { return w.view.Space().Query() }

// Vocalize runs the pipelined loop of Algorithm 1 with the view as the
// sample source: no rows are read at query time. Uncertainty modes are not
// supported (bounds come from the on-line cache) and are rejected.
func (w *Warm) Vocalize() (*Output, error) {
	return w.VocalizeContext(context.Background())
}

// VocalizeContext is Vocalize bound to ctx. Like the other vocalizers,
// cancellation and deadline expiry degrade instead of erroring: the
// committed sentence prefix (at minimum the preamble) is returned with
// Degraded set, so the web layer's tier-B cache path keeps the same
// degrade-not-error contract as the cold path.
func (w *Warm) VocalizeContext(ctx context.Context) (*Output, error) {
	if w.view == nil {
		return nil, errors.New("core: warm vocalizer needs a view")
	}
	if w.cfg.Uncertainty != UncertaintyOff {
		return nil, errors.New("core: uncertainty modes need on-line sampling; use Holistic")
	}
	if w.view.Space().Dataset() != w.dataset {
		return nil, errors.New("core: view belongs to a different dataset")
	}
	s, err := newSession(w.dataset, w.Query(), w.cfg)
	if err != nil {
		return nil, err
	}
	cfg := s.cfg
	start := cfg.Clock.Now()

	preamble := s.gen.NewPreamble()
	s.speaker.Start(preamble.Text())
	latency := cfg.Clock.Now().Sub(start)

	if ctx.Err() != nil {
		return markDegraded(&Output{
			Speech:     &speech.Speech{Preamble: preamble},
			Latency:    latency,
			Transcript: s.speaker.Transcript(),
		}, ctx, w.dataset), nil
	}

	scale, ok := w.view.GrandEstimate()
	if !ok {
		scale = 0
	}
	if err := s.buildModel(scale); err != nil {
		return nil, err
	}
	tree, err := mcts.NewTreeWithCap(s.gen, speech.SpeechScale(scale), s.evalFunc(w.view), s.rng, cfg.MaxTreeNodes)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	tree.UniformPolicy = cfg.UniformTreePolicy
	s.simCharge(tree.NodeCount())

	var treeSamples int64
	cancelled := false
	for !cancelled && !tree.Terminal() {
		rounds := 0
		for s.speaker.IsPlaying() || rounds < cfg.MinRounds {
			if ctx.Err() != nil {
				cancelled = true
				break
			}
			if cfg.MaxRoundsPerSentence > 0 && rounds >= cfg.MaxRoundsPerSentence {
				break
			}
			for i := 0; i < cfg.SamplesPerRound; i++ {
				if tree.Sample() {
					treeSamples++
				}
			}
			rounds++
			s.simAdvance()
		}
		if cancelled {
			// Never commit a sentence the deadline left no time to
			// evaluate: the committed prefix is the degraded answer.
			break
		}
		best := tree.BestChild()
		tree.Advance(best)
		s.speaker.Start(tree.Speech(best).LastSentence())
	}

	return markDegraded(&Output{
		Speech:       tree.Speech(tree.Root()),
		Latency:      latency,
		PlanningTime: cfg.Clock.Now().Sub(start),
		TreeSamples:  treeSamples,
		Transcript:   s.speaker.Transcript(),
	}, ctx, w.dataset), nil
}

// Compile-time interface check.
var _ ContextVocalizer = (*Warm)(nil)
