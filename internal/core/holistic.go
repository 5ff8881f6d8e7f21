package core

import (
	"context"
	"math"
	"time"

	"repro/internal/mcts"
	"repro/internal/olap"
	"repro/internal/speech"
)

// Holistic is the paper's sampled vocalizer. On its own schedule it is the
// combined query evaluation and vocalization algorithm (Algorithm 1): it
// starts speaking the preamble immediately, builds the speech search tree
// while the preamble plays, and then alternates: sample database rows and
// the UCT tree while the current sentence plays; when playback ends, commit
// to the child with the best mean reward and start speaking it.
//
// On the unmerged schedule (NewUnmerged) it is the no-pipelining ablation:
// the same sampler and planner, but one window open until the
// interactivity budget (500 ms) is spent, after which the whole speech is
// fixed by a greedy descent and spoken in one piece. Without overlapping
// planning and voice output it sees far fewer samples per sentence, which
// is why its quality trails in Figure 3.
type Holistic struct {
	dataset  *olap.Dataset
	query    olap.Query
	cfg      Config
	unmerged bool
}

// NewHolistic returns a holistic vocalizer for the query.
func NewHolistic(d *olap.Dataset, q olap.Query, cfg Config) *Holistic {
	return &Holistic{dataset: d, query: q, cfg: cfg.Normalize()}
}

// NewUnmerged returns the vocalizer on the unmerged schedule.
func NewUnmerged(d *olap.Dataset, q olap.Query, cfg Config) *Holistic {
	return &Holistic{dataset: d, query: q, cfg: cfg.Normalize(), unmerged: true}
}

// runnerUp returns the visited root child with the second-best mean
// reward, or nil if best has no competition.
func runnerUp(tree *mcts.Tree, best *mcts.Node) *mcts.Node {
	var second *mcts.Node
	tree.Kids(tree.Root(), func(c *mcts.Node) {
		if c == best || c.Visits == 0 {
			return
		}
		if second == nil || c.MeanReward() > second.MeanReward() {
			second = c
		}
	})
	return second
}

// Name identifies the approach in experiment output.
func (h *Holistic) Name() string {
	if h.unmerged {
		return "unmerged"
	}
	return "holistic"
}

// Vocalize runs Algorithm 1 (EVALVOCAL), or the unmerged schedule, and
// returns the spoken speech with its timing statistics.
func (h *Holistic) Vocalize() (*Output, error) {
	return h.VocalizeContext(context.Background())
}

// VocalizeContext is Vocalize bound to ctx. Cancellation and deadline
// expiry degrade instead of erroring: Algorithm 1 stops committing new
// sentences and returns the preamble plus whatever sentences were
// committed in time, flagged with Output.Degraded — a late partial answer
// beats no answer for a voice interface that already started speaking. The
// unmerged schedule's window ends early instead, and it commits whatever
// the tree learned in time. On either schedule an already-expired context
// degrades to a preamble-only speech.
func (h *Holistic) VocalizeContext(ctx context.Context) (*Output, error) {
	s, err := newSession(h.dataset, h.query, h.cfg)
	if err != nil {
		return nil, err
	}
	defer s.release()
	cfg := s.cfg
	start := cfg.Clock.Now()

	// Algorithm 1 starts voice output of the preamble immediately, and
	// everything else overlaps with its playback; the unmerged schedule
	// speaks nothing before its whole speech is fixed. A deadline that
	// expired before planning even started still yields a valid (if
	// minimal) spoken answer: the preamble alone.
	var preamble *speech.Preamble
	var latency time.Duration
	if !h.unmerged || ctx.Err() != nil {
		preamble, latency = s.speakPreamble(start)
		if ctx.Err() != nil {
			return s.preambleOnly(ctx, preamble, latency, 0), nil
		}
	}
	rowsRead, scale, err := s.readInitialRows(ctx)
	if err != nil {
		return nil, err
	}
	if !h.unmerged && ctx.Err() != nil {
		return s.preambleOnly(ctx, preamble, latency, rowsRead), nil
	}
	// Tree construction overlaps preamble playback: on a simulated
	// substrate its cost consumes playback time, never answer latency.
	// Without pipelining there is nothing to overlap it with, and its cost
	// comes straight out of the unmerged budget.
	tree, err := s.newTree(scale)
	if err != nil {
		return nil, err
	}
	defer tree.Release()
	if cfg.Trace != nil {
		cfg.Trace.TreeNodes = tree.NodeCount()
		cfg.Trace.ScaleEstimate = scale
	}

	if h.unmerged {
		// One planning window, open until the budget is spent.
		deadline := start.Add(cfg.Budget)
		w := s.plan(ctx, tree, func(int) bool { return s.cfg.Clock.Now().Before(deadline) })
		final := s.commitWhole(tree, scale)
		latency = cfg.Clock.Now().Sub(start)
		return markDegraded(&Output{
			Speech:       final,
			Latency:      latency,
			PlanningTime: latency,
			RowsRead:     rowsRead + w.rows,
			TreeSamples:  w.samples,
			Transcript:   s.speaker.Transcript(),
		}, ctx, h.dataset), nil
	}

	var treeSamples int64
	var boundsSpoken []string
	var w window
	// The speech is finished once nothing can follow the committed sentence:
	// what would be planned while that sentence plays, nobody would hear.
	for !tree.Terminal() {
		// Refine quality estimates while the current sentence plays.
		windowStart := cfg.Clock.Now()
		w = s.plan(ctx, tree, func(rounds int) bool {
			return s.speaker.IsPlaying() || rounds < s.cfg.MinRounds
		})
		rowsRead += w.rows
		treeSamples += w.samples
		if w.cancelled {
			// Never commit a sentence the deadline left no time to
			// evaluate: the committed prefix is the degraded answer.
			break
		}
		best := tree.BestChild()
		if cfg.Trace != nil {
			st := SentenceTrace{
				Sentence:       tree.Speech(best).LastSentence(),
				Rounds:         w.rounds,
				RowsRead:       w.rows,
				TreeSamples:    w.samples,
				BestMeanReward: best.MeanReward(),
				BestVisits:     int64(best.Visits),
				PlanningTime:   cfg.Clock.Now().Sub(windowStart),
			}
			if second := runnerUp(tree, best); second != nil {
				st.RunnerUp = tree.Speech(second).LastSentence()
				st.RunnerUpReward = second.MeanReward()
			}
			cfg.Trace.Sentences = append(cfg.Trace.Sentences, st)
		}
		// Choose the next sentence (exploitation only) and start playing.
		tree.Advance(best)
		if cfg.Uncertainty == UncertaintyBounds {
			if bounds, ok := s.boundsSentence(tree.Refinement(best)); ok {
				s.speaker.Start(bounds)
				boundsSpoken = append(boundsSpoken, bounds)
			}
		}
		s.speaker.Start(tree.Speech(best).LastSentence())
	}

	var warning string
	if !w.cancelled && cfg.Uncertainty == UncertaintyWarn && s.lowConfidence() {
		warning = uncertaintyWarning
		s.speaker.Start(warning)
	}

	return markDegraded(&Output{
		Speech:       tree.Speech(tree.Root()),
		Latency:      latency,
		PlanningTime: cfg.Clock.Now().Sub(start),
		RowsRead:     rowsRead,
		TreeSamples:  treeSamples,
		Transcript:   s.speaker.Transcript(),
		BoundsSpoken: boundsSpoken,
		Warning:      warning,
	}, ctx, h.dataset), nil
}

// commitWhole fixes the unmerged schedule's whole speech at once, by a
// greedy best-mean-reward descent from the root, and speaks it in one
// piece. When no sample landed in time it speaks the rung of the baseline
// ladder nearest the grand estimate the initial rows gave.
func (s *session) commitWhole(tree *mcts.Tree, scale float64) *speech.Speech {
	for {
		best := tree.BestChild()
		if best == nil || best.Visits == 0 {
			break
		}
		tree.Advance(best)
	}
	final := tree.Speech(tree.Root())
	if final.Baseline == nil {
		for _, b := range s.gen.BaselineCandidates(speech.SpeechScale(scale)) {
			if final.Baseline == nil || math.Abs(b.Value-scale) < math.Abs(final.Baseline.Value-scale) {
				final.Baseline = b
			}
		}
	}
	s.speaker.Start(final.Text())
	return final
}
