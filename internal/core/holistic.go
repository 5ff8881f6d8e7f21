package core

import (
	"context"
	"fmt"

	"repro/internal/mcts"
	"repro/internal/olap"
	"repro/internal/speech"
)

// Holistic is the paper's combined query evaluation and vocalization
// algorithm (Algorithm 1). It starts speaking the preamble immediately,
// builds the speech search tree while the preamble plays, and then
// alternates: sample database rows and the UCT tree while the current
// sentence plays; when playback ends, commit to the child with the best
// mean reward and start speaking it.
type Holistic struct {
	dataset *olap.Dataset
	query   olap.Query
	cfg     Config
}

// NewHolistic returns a holistic vocalizer for the query.
func NewHolistic(d *olap.Dataset, q olap.Query, cfg Config) *Holistic {
	return &Holistic{dataset: d, query: q, cfg: cfg.Normalize()}
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

// markDegraded stamps the context's failure reason on the output and
// records the size of the data snapshot the answer was computed over.
func markDegraded(out *Output, ctx context.Context, d *olap.Dataset) *Output {
	out.TableRows = int64(d.Table().NumRows())
	if err := ctx.Err(); err != nil {
		out.Degraded = true
		out.DegradeReason = err.Error()
	}
	return out
}

// Name identifies the approach in experiment output.
func (h *Holistic) Name() string { return "holistic" }

// Vocalize runs Algorithm 1 (EVALVOCAL) and returns the spoken speech with
// its timing statistics.
func (h *Holistic) Vocalize() (*Output, error) {
	return h.VocalizeContext(context.Background())
}

// VocalizeContext is Vocalize bound to ctx. Cancellation and deadline
// expiry degrade instead of erroring: the planner stops committing new
// sentences and returns the preamble plus whatever sentences were
// committed in time, flagged with Output.Degraded — a late partial answer
// beats no answer for a voice interface that already started speaking.
func (h *Holistic) VocalizeContext(ctx context.Context) (*Output, error) {
	s, err := newSession(h.dataset, h.query, h.cfg)
	if err != nil {
		return nil, err
	}
	defer s.release()
	// Rows are classified on a second goroutine from here on, while the
	// preamble plays and the tree is built and sampled.
	s.sampler.Start()
	cfg := s.cfg
	start := cfg.Clock.Now()

	// Start voice output of the preamble immediately; everything else
	// overlaps with its playback.
	preamble := s.gen.NewPreamble()
	s.speaker.Start(preamble.Text())
	latency := cfg.Clock.Now().Sub(start)

	// A deadline that expired before planning even started still yields a
	// valid (if minimal) spoken answer: the preamble alone.
	if ctx.Err() != nil {
		return markDegraded(&Output{
			Speech:     &speech.Speech{Preamble: preamble},
			Latency:    latency,
			Transcript: s.speaker.Transcript(),
		}, ctx, h.dataset), nil
	}

	// Initial sample batch: enough rows to estimate the value scale that
	// seeds baseline candidates and the belief σ.
	cache := s.sampler.Cache()
	rowsRead := int64(s.sampler.ReadRowsContext(ctx, cfg.InitialRows))
	scale, ok := cache.GrandEstimate()
	if !ok {
		scale = 0
	}
	if err := s.buildModel(scale); err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return markDegraded(&Output{
			Speech:     &speech.Speech{Preamble: preamble},
			Latency:    latency,
			RowsRead:   rowsRead,
			Transcript: s.speaker.Transcript(),
		}, ctx, h.dataset), nil
	}

	// Initialize the search tree for speech output (ST.NEWNODE/ST.EXPAND).
	tree, err := mcts.NewTreeWithCap(s.gen, speech.SpeechScale(scale), s.evalFunc(cache), s.rng, cfg.MaxTreeNodes)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	// The answer keeps no node and no menu refinement: the speech is built,
	// its refinements detached, before the tree and the session go.
	defer tree.Release()
	tree.UniformPolicy = cfg.UniformTreePolicy
	// Tree construction overlaps preamble playback: on a simulated
	// substrate its cost consumes playback time, never answer latency.
	s.simCharge(tree.NodeCount())
	if cfg.Trace != nil {
		cfg.Trace.TreeNodes = tree.NodeCount()
		cfg.Trace.ScaleEstimate = scale
	}

	var treeSamples int64
	var boundsSpoken []string
	cancelled := false
	// The speech is finished once nothing can follow the committed sentence:
	// what would be planned while that sentence plays, nobody would hear.
	for !cancelled && !tree.Terminal() {
		// Refine quality estimates while the current sentence plays.
		rounds := 0
		windowStart := cfg.Clock.Now()
		windowRows := int64(0)
		windowSamples := int64(0)
		for s.speaker.IsPlaying() || rounds < cfg.MinRounds {
			if ctx.Err() != nil {
				cancelled = true
				break
			}
			if cfg.MaxRoundsPerSentence > 0 && rounds >= cfg.MaxRoundsPerSentence {
				break
			}
			n := int64(s.sampler.ReadRowsContext(ctx, cfg.RowsPerRound))
			rowsRead += n
			windowRows += n
			done, sampleErr := tree.SampleBatch(ctx, cfg.SamplesPerRound)
			treeSamples += int64(done)
			windowSamples += int64(done)
			if sampleErr != nil {
				cancelled = true
				break
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
		if cfg.Trace != nil {
			st := SentenceTrace{
				Sentence:       tree.Speech(best).LastSentence(),
				Rounds:         rounds,
				RowsRead:       windowRows,
				TreeSamples:    windowSamples,
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
	}, ctx, h.dataset), nil
}
