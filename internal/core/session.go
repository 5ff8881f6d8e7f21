package core

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/belief"
	"repro/internal/freelist"
	"repro/internal/mcts"
	"repro/internal/olap"
	"repro/internal/sampling"
	"repro/internal/speech"
	"repro/internal/table"
	"repro/internal/voice"
)

// session bundles the per-query machinery shared by the vocalizers:
// aggregate space, fragment generator, sampler+cache, belief model, and
// speaker. Vocalizers differ only in how they schedule these pieces.
type session struct {
	cfg     Config
	space   *olap.Space
	gen     *speech.Generator
	sampler *sampling.Sampler
	model   *belief.Model
	speaker *voice.Speaker
	rng     *rand.Rand
}

// newSession validates the query and assembles the shared machinery.
// The belief model is created lazily (its σ depends on a scale estimate).
func newSession(d *olap.Dataset, q olap.Query, cfg Config) (*session, error) {
	cfg = cfg.Normalize()
	space, err := olap.NewSpace(d, q)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	gen := speech.NewGenerator(space, cfg.Prefs, cfg.Format)
	if cfg.Percents != nil {
		gen.Percents = cfg.Percents
	}
	gen.DisjointScopes = cfg.DisjointScopes
	rng := rngs.Get()
	if rng == nil {
		rng = rand.New(rand.NewSource(cfg.Seed))
	} else {
		rng.Seed(cfg.Seed)
	}
	sampler, err := sampling.NewSamplerWithScanner(space, newScanner(cfg, space, rng))
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if cfg.ResampleEstimates {
		if err := sampler.Cache().EnableResample(cfg.ResampleSize); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	return &session{
		cfg:     cfg,
		space:   space,
		gen:     gen,
		sampler: sampler,
		speaker: voice.NewSpeaker(cfg.Clock, cfg.SpeakingRate),
		rng:     rng,
	}, nil
}

// rngs holds the random streams of released sessions. Re-seeding one makes
// it the stream rand.New(rand.NewSource(seed)) starts, without the 4.9 KB
// of a new source.
var rngs = freelist.New[rand.Rand]()

// release ends an answer's session once its speech is built: it stops and
// joins the sampler's row worker if one was started, and the generator's
// menu, the worker's ring, the sample cache's buffers and the random stream
// go to the next answer's session. The speech keeps none of them
// (mcts.Tree.Speech detaches its refinements), and nothing of the session
// may be used after it. The vocalizers that plan on a tree start the worker
// right after newSession and release the session beside the tree.
func (s *session) release() {
	s.sampler.Stop()
	s.gen.Release()
	s.sampler.Cache().Release()
	rngs.Put(s.rng)
	*s = session{}
}

// newScanner builds the session's row stream: the configured override
// when set (fault injection, alternative orders), else the pseudo-random
// full-table scan.
func newScanner(cfg Config, space *olap.Space, rng *rand.Rand) table.Scanner {
	if cfg.Scanner != nil {
		return cfg.Scanner(space.Dataset().Table(), rng)
	}
	return table.NewRandomScanner(space.Dataset().Table(), rng)
}

// sigmaFor derives the belief σ from the configured value or a scale
// estimate, guarding against degenerate scales.
func (s *session) sigmaFor(scale float64) float64 {
	if s.cfg.Sigma > 0 {
		return s.cfg.Sigma
	}
	sigma := belief.SigmaFromScale(scale)
	if sigma <= 0 {
		sigma = 1
	}
	return sigma
}

// buildModel instantiates the belief model for the given scale.
func (s *session) buildModel(scale float64) error {
	m, err := belief.NewModel(s.space, s.sigmaFor(scale))
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	s.model = m
	return nil
}

// evalFunc is SpeechDBeval (Algorithm 3): pick a random eligible aggregate,
// estimate its value from the sample cache, and reward the speech by the
// belief probability of that estimate.
func (s *session) evalFunc(cache *sampling.Cache) mcts.EvalFunc {
	return func(sp *speech.Speech) (float64, bool) {
		a, ok := cache.PickAggregate(s.rng)
		if !ok {
			return 0, false
		}
		e, ok := cache.Estimate(a, s.rng)
		if !ok {
			return 0, false
		}
		return s.model.Reward(sp, a, e), true
	}
}

// simAdvance moves a simulated clock forward by the per-round cost;
// on a real clock time passes by itself.
func (s *session) simAdvance() {
	if sim, ok := s.cfg.Clock.(*voice.SimClock); ok {
		sim.Advance(s.cfg.SimRoundCost)
	}
}

// simCharge advances a simulated clock by the cost of building n tree
// nodes (no-op on the real clock or with SimNodeCost zero).
func (s *session) simCharge(nodes int) {
	if s.cfg.SimNodeCost <= 0 {
		return
	}
	if sim, ok := s.cfg.Clock.(*voice.SimClock); ok {
		sim.Advance(time.Duration(nodes) * s.cfg.SimNodeCost)
	}
}
