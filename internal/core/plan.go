package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/mcts"
	"repro/internal/olap"
	"repro/internal/speech"
)

// speakPreamble starts voice output of the query's preamble and returns it
// with the latency since start.
func (s *session) speakPreamble(start time.Time) (*speech.Preamble, time.Duration) {
	preamble := s.gen.NewPreamble()
	s.speaker.Start(preamble.Text())
	return preamble, s.cfg.Clock.Now().Sub(start)
}

// preambleOnly is the degraded answer of a run whose context ended before
// anything past the preamble was committed: the preamble alone, spoken at
// latency, after rows read.
func (s *session) preambleOnly(ctx context.Context, preamble *speech.Preamble, latency time.Duration, rows int64) *Output {
	return markDegraded(&Output{
		Speech:     &speech.Speech{Preamble: preamble},
		Latency:    latency,
		RowsRead:   rows,
		Transcript: s.speaker.Transcript(),
	}, ctx, s.space.Dataset())
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

// readInitialRows starts the row worker, which classifies rows on a second
// goroutine from here on, and reads the initial sample batch: enough rows to
// estimate the value scale that seeds baseline candidates and the belief σ.
// It fits the belief model to that scale and returns the rows read and the
// scale (0 when no row had a value).
func (s *session) readInitialRows(ctx context.Context) (int64, float64, error) {
	s.sampler.Start()
	rows := int64(s.sampler.ReadRowsContext(ctx, s.cfg.InitialRows))
	scale, _ := s.sampler.Cache().GrandEstimate()
	return rows, scale, s.buildModel(scale)
}

// newTree builds the speech search tree (ST.NEWNODE/ST.EXPAND) for the
// scale readInitialRows estimated. On a simulated substrate building it
// costs SimNodeCost a node. The caller releases the tree once the speech is
// built: the answer keeps no node and no menu refinement.
func (s *session) newTree(scale float64) (*mcts.Tree, error) {
	tree, err := mcts.NewTreeWithCap(s.gen, speech.SpeechScale(scale), s.evalFunc(s.sampler.Cache()), s.rng, s.cfg.MaxTreeNodes)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	tree.UniformPolicy = s.cfg.UniformTreePolicy
	s.cfg.Clock.Advance(time.Duration(tree.NodeCount()) * s.cfg.SimNodeCost)
	return tree, nil
}

// window is what one planning window did.
type window struct {
	rounds        int
	rows, samples int64
	// cancelled reports that ctx ended the window.
	cancelled bool
}

// simRoundCost is what a planning round costs on a simulated clock.
const simRoundCost = time.Millisecond

// plan runs planning rounds on tree while open reports the window open
// after the rounds so far, and stops after MaxRoundsPerSentence of them.
// A round reads RowsPerRound rows into the sample cache and samples the
// tree SamplesPerRound times; on a simulated clock it costs simRoundCost.
// Holistic's two schedules differ only in their windows: Algorithm 1's
// stays open while its sentence plays or MinRounds are not done, the
// unmerged one's until its Budget is spent.
func (s *session) plan(ctx context.Context, tree *mcts.Tree, open func(rounds int) bool) window {
	var w window
	for open(w.rounds) {
		if ctx.Err() != nil {
			w.cancelled = true
			break
		}
		if s.cfg.MaxRoundsPerSentence > 0 && w.rounds >= s.cfg.MaxRoundsPerSentence {
			break
		}
		w.rows += int64(s.sampler.ReadRowsContext(ctx, s.cfg.RowsPerRound))
		done, err := tree.SampleBatch(ctx, s.cfg.SamplesPerRound)
		w.samples += int64(done)
		if err != nil {
			w.cancelled = true
			break
		}
		w.rounds++
		s.cfg.Clock.Advance(simRoundCost)
	}
	return w
}
