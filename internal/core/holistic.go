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
	out, err := h.vocalize(ctx)
	if t := h.cfg.Trace; t != nil && err == nil {
		*t = out.Trace // for benchmark/trace.go:156 (ROADMAP item 1a(i))
	}
	return out, err
}

// vocalize is VocalizeContext without the copy to Config.Trace.
func (h *Holistic) vocalize(ctx context.Context) (*Output, error) {
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
	trace := Trace{TreeNodes: tree.NodeCount(), ScaleEstimate: scale}

	if h.unmerged {
		// One planning window, open until the budget is spent.
		deadline := start.Add(cfg.Budget)
		w, _ := s.plan(ctx, tree, ClosedBudget, func(now time.Time, _ int) bool { return now.Before(deadline) })
		final := s.commitWhole(tree, scale)
		w.Sentence = final.Text()
		s.speaker.Start(w.Sentence)
		trace.Sentences = []SentenceTrace{w}
		latency = cfg.Clock.Now().Sub(start)
		return markDegraded(&Output{
			Speech:       final,
			Latency:      latency,
			PlanningTime: latency,
			RowsRead:     rowsRead + w.RowsRead,
			TreeSamples:  w.TreeSamples,
			Transcript:   s.speaker.Transcript(),
			Trace:        trace,
		}, ctx, h.dataset), nil
	}

	var treeSamples int64
	var boundsSpoken []string
	cancelled := false
	// Each window commits the baseline or a refinement, or is cancelled and
	// the last.
	trace.Sentences = make([]SentenceTrace, 0, cfg.Prefs.RefinementLimit()+1)
	// The speech is finished once nothing can follow the committed sentence:
	// what would be planned while that sentence plays, nobody would hear.
	for !cancelled && !tree.Terminal() {
		// Refine quality estimates while the current sentence plays.
		w, best := s.plan(ctx, tree, ClosedPlayback, func(now time.Time, rounds int) bool {
			return s.speaker.PlayingAt(now) || rounds < s.cfg.MinRounds
		})
		rowsRead += w.RowsRead
		treeSamples += w.TreeSamples
		// Never commit a sentence the deadline left no time to evaluate:
		// the committed prefix is the degraded answer.
		cancelled = w.Closed == ClosedCancelled
		if !cancelled {
			// Choose the next sentence (exploitation only) and start playing.
			tree.Advance(best)
			if cfg.Uncertainty == UncertaintyBounds {
				if bounds, ok := s.boundsSentence(tree.Refinement(best)); ok {
					s.speaker.Start(bounds)
					boundsSpoken = append(boundsSpoken, bounds)
				}
			}
			w.Sentence = tree.Speech(best).LastSentence()
			s.speaker.Start(w.Sentence)
		}
		trace.Sentences = append(trace.Sentences, w)
	}

	var warning string
	if !cancelled && cfg.Uncertainty == UncertaintyWarn && s.lowConfidence() {
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
		Trace:        trace,
	}, ctx, h.dataset), nil
}

// commitWhole fixes the unmerged schedule's whole speech at once, by a
// greedy best-mean-reward descent from the root, for the caller to speak in
// one piece. When no sample landed in time it speaks the rung of the baseline
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
	return final
}
