package core

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/mcts"
	"repro/internal/speech"
)

// Trace is the planner's record of one answer, which Output.Trace carries:
// the search tree it built, the scale estimate that seeded it, and one
// record per planning window of either Holistic schedule.
type Trace struct {
	// Sentences holds one record per planning window, in order.
	Sentences []SentenceTrace
	// TreeNodes is the search tree size after construction.
	TreeNodes int
	// ScaleEstimate is the grand estimate that seeded the baselines.
	ScaleEstimate float64
}

// Why a planning window closed (SentenceTrace.Closed).
const (
	ClosedPlayback  = "playback"  // Algorithm 1's sentence ended, after MinRounds rounds
	ClosedBudget    = "budget"    // the unmerged schedule's budget was spent
	ClosedCap       = "cap"       // the window ran MaxRoundsPerSentence rounds
	ClosedCancelled = "cancelled" // the answer's context ended
)

// SentenceTrace describes one planning window: what it read and sampled,
// the root's leader and runner-up when it closed, why it closed, and what it
// committed. Its JSON form is a window of the web query log.
type SentenceTrace struct {
	// Sentence is the text the window committed and started speaking: one
	// sentence on Algorithm 1's schedule, the whole speech on the unmerged
	// one, and empty when the window committed nothing.
	Sentence string `json:"sentence"`
	// Rounds is the number of planning rounds in the window.
	Rounds int `json:"rounds"`
	// RowsRead is the number of table rows consumed in the window.
	RowsRead int64 `json:"rows"`
	// TreeSamples is the number of successful MCTS rounds in the window.
	TreeSamples int64 `json:"samples"`
	// BestMeanReward is the leader's mean sampled reward: the root child
	// with the best one when the window closed, which Algorithm 1 commits.
	BestMeanReward float64 `json:"leaderReward"`
	// BestVisits is the leader's visit count.
	BestVisits int64 `json:"leaderVisits"`
	// RunnerUpReward is the runner-up's mean reward (0 when there was no
	// competition).
	RunnerUpReward float64 `json:"runnerUpReward,omitempty"`
	// PlanningTime is the time on the answer's clock from the window's first
	// clock reading to the one that closed it.
	PlanningTime time.Duration `json:"planningNs"`
	// Closed says why the window closed: ClosedPlayback, ClosedBudget,
	// ClosedCap or ClosedCancelled.
	Closed string `json:"closed"`

	// runnerUpBase and runnerUpRef are the runner-up's fragment, at most
	// one set: a baseline of the tree's ladder, or a copy of a menu
	// refinement without its scope set, since the generator's menu goes to
	// the next answer. RunnerUp renders it.
	runnerUpBase *speech.Baseline
	runnerUpRef  *speech.Refinement
}

// setLeaders records best, a root child of tree, as the window's leader,
// and the visited root child of second-best mean reward, if any, as its
// runner-up, without rendering the runner-up's text.
func (w *SentenceTrace) setLeaders(tree *mcts.Tree, best *mcts.Node) {
	w.BestMeanReward, w.BestVisits = best.MeanReward(), int64(best.Visits)
	var second *mcts.Node
	tree.Kids(tree.Root(), func(c *mcts.Node) {
		if c != best && c.Visits > 0 && (second == nil || c.MeanReward() > second.MeanReward()) {
			second = c
		}
	})
	if second == nil {
		return
	}
	w.RunnerUpReward = second.MeanReward()
	if r := tree.Refinement(second); r != nil {
		cp := *r
		cp.Preds, cp.Scope = slices.Clone(r.Preds), nil
		w.runnerUpRef = &cp
	} else {
		w.runnerUpBase = tree.Baseline(second)
	}
}

// RunnerUp renders the runner-up's sentence: the root child with the
// second-best mean reward when the window closed, or "" when no other child
// was visited. It renders into a copy, so readers may call it at once.
func (w *SentenceTrace) RunnerUp() string {
	switch {
	case w.runnerUpRef != nil:
		r := *w.runnerUpRef
		return r.Text()
	case w.runnerUpBase != nil:
		b := *w.runnerUpBase
		return b.Text()
	}
	return ""
}

// Summary renders the trace as a human-readable report.
func (t *Trace) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "search tree: %d nodes, scale estimate %g\n", t.TreeNodes, t.ScaleEstimate)
	for i := range t.Sentences {
		s := &t.Sentences[i]
		fmt.Fprintf(&b, "window %d: %q\n", i+1, s.Sentence)
		fmt.Fprintf(&b, "  %d rounds, %d rows, %d tree samples, %v, closed by %s\n",
			s.Rounds, s.RowsRead, s.TreeSamples, s.PlanningTime, s.Closed)
		fmt.Fprintf(&b, "  leader at reward %.3f over %d visits", s.BestMeanReward, s.BestVisits)
		if ru := s.RunnerUp(); ru != "" {
			fmt.Fprintf(&b, " (runner-up %.3f: %q)", s.RunnerUpReward, ru)
		}
		b.WriteString("\n")
	}
	return b.String()
}
