// Package core implements the paper's primary contribution: combined query
// evaluation and result vocalization (Section 4). Two vocalizers share
// one grammar, user model, and sampling substrate:
//
//   - Holistic — Algorithm 1: speaks the preamble immediately, then keeps
//     sampling the database and the UCT speech tree while each sentence
//     plays, committing to the best follow-up sentence when playback ends.
//     NewUnmerged returns it on the schedule of the ablation without
//     pipelining: the same sampler and planner under a fixed interactivity
//     budget (500 ms), after which the chosen speech is spoken in one piece.
//   - Optimal — evaluates the query exactly and scores every candidate
//     speech with the exact quality metric before speaking; the quality
//     ceiling, at interactive-latency cost.
package core

import (
	"math/rand"
	"time"

	"repro/internal/speech"
	"repro/internal/table"
	"repro/internal/voice"
)

// InteractivityThreshold is the latency below which interactive data
// analysis feels immediate; the paper's budget for the unmerged baseline.
const InteractivityThreshold = 500 * time.Millisecond

// Config tunes a vocalizer. The zero value plus Normalize yields the
// paper's configuration.
type Config struct {
	// Prefs constrain speech output (300 chars, 2 refinements by default).
	Prefs speech.Prefs
	// Format renders values (percent for probabilities, thousands for
	// salaries).
	Format speech.ValueFormat
	// Percents overrides the refinement change menu (optional).
	Percents []int
	// Sigma fixes the belief-model standard deviation; zero derives it as
	// half the estimated grand average (the paper's choice).
	Sigma float64
	// Seed drives all randomized components.
	Seed int64

	// Clock drives playback timing; nil means the real clock. Planning
	// work is charged to it (1 ms a round, SimNodeCost a tree node), which
	// moves only a simulated clock. A *voice.SimClock is a template: every
	// answer plays on a fresh one of its own.
	Clock voice.Clock

	// InitialRows are read before the search tree is built, providing the
	// scale estimate that seeds baseline candidates and the belief σ. The
	// default is 4096: on a 2 % 0/1 measure 256 rows hold five positives,
	// and every answer at one Seed shares them (TestScaleEstimateSpread).
	InitialRows int
	// RowsPerRound are read from the table in each planning round.
	RowsPerRound int
	// SamplesPerRound is the number of tree samples per planning round.
	SamplesPerRound int
	// PlannerWorkers is read by nothing: the planner samples the tree on one
	// goroutine. The field stays because benchmark/server.go:34 sets it;
	// ROADMAP item 1 removes both.
	PlannerWorkers int
	// MinRounds is the minimum number of planning rounds before Holistic
	// commits a sentence, guarding quality when playback outpaces planning.
	MinRounds int
	// MaxTreeNodes caps eager search-tree expansion; zero keeps the mcts
	// package default. Lower values bound planning memory on fine-grained
	// queries (deeper nodes expand lazily during sampling).
	MaxTreeNodes int
	// MaxRoundsPerSentence caps the rounds of every planning window (a
	// sentence's, or Unmerged's one) so simulated-clock runs terminate even
	// with very slow speech; zero means no cap beyond the window's own end.
	MaxRoundsPerSentence int
	// SimRoundCost is read by nothing: a planning round costs simRoundCost
	// on a simulated clock. The field stays because benchmark/server.go:31
	// sets it; ROADMAP item 1 removes both.
	SimRoundCost time.Duration
	// SimNodeCost advances a simulated clock by this much per search-tree
	// node built, modeling the O(m^k) pre-processing cost of the paper's
	// substrate. The holistic approach overlaps tree construction with
	// preamble playback; the unmerged baseline pays it out of its fixed
	// budget — which is exactly why its quality collapses in Figure 3.
	SimNodeCost time.Duration
	// Budget is the planning budget of the unmerged baseline: its one
	// planning window closes this long after the answer starts.
	Budget time.Duration

	// DisjointScopes forbids overlapping refinement scopes, emulating a
	// grammar of absolute refinements (ablation).
	DisjointScopes bool
	// UniformTreePolicy replaces UCT child selection with uniform random
	// sampling (ablation).
	UniformTreePolicy bool
	// ResampleSize, when positive, derives cache estimates from a
	// subsample of this fixed size as in the paper's literal Algorithm 3
	// instead of the running mean (ablation).
	ResampleSize int

	// Scanner overrides how table rows are streamed into the sampler;
	// nil selects the pseudo-random full-table scan. Fault-injection
	// tests wrap the scan with failing, slow, or stalling variants here.
	// It is called once per answer, with the answer's random stream, which
	// the next answer reuses: neither it nor its scanner may use rng once
	// the answer is returned.
	Scanner func(t *table.Table, rng *rand.Rand) table.Scanner

	// Trace, when non-nil, records the planner's per-sentence decisions
	// for observability.
	Trace *Trace

	// Uncertainty selects the Section 4.4 confidence extension, at the 95 %
	// level.
	Uncertainty UncertaintyMode
	// WarnRelativeWidth triggers the warning mode when the grand-scope
	// confidence interval's width exceeds this fraction of its center.
	WarnRelativeWidth float64
}

// DaemonConfig is the planner configuration the daemon (cmd/voiceolapd)
// serves with: a simulated clock at 1 ms per planning round, at most 2 000
// rounds per planning window, and eager tree expansion capped at 100 000
// nodes. Every answer plays on a clock of its own (newSession), and the
// server sets each dataset's value format.
func DaemonConfig(seed int64) Config {
	return Config{
		Seed:                 seed,
		Clock:                voice.NewSimClock(),
		MaxRoundsPerSentence: 2000,
		MaxTreeNodes:         100000,
	}
}

// Normalize fills unset fields with the paper's defaults and returns the
// completed configuration.
func (c Config) Normalize() Config {
	if c.Prefs == (speech.Prefs{}) {
		c.Prefs = speech.DefaultPrefs()
	}
	if c.Clock == nil {
		c.Clock = voice.RealClock{}
	}
	if c.InitialRows <= 0 {
		c.InitialRows = 4096
	}
	if c.RowsPerRound <= 0 {
		c.RowsPerRound = 64
	}
	if c.SamplesPerRound <= 0 {
		c.SamplesPerRound = 4
	}
	if c.MinRounds <= 0 {
		c.MinRounds = 64
	}
	if c.MaxRoundsPerSentence < 0 {
		c.MaxRoundsPerSentence = 0
	}
	if c.Budget <= 0 {
		c.Budget = InteractivityThreshold
	}
	if c.WarnRelativeWidth <= 0 {
		c.WarnRelativeWidth = 0.5
	}
	return c
}

// Output reports a vocalization run.
type Output struct {
	// Speech is the final spoken speech (including the preamble).
	Speech *speech.Speech
	// Latency is the time from invocation until voice output started.
	Latency time.Duration
	// PlanningTime is the total compute time of the run.
	PlanningTime time.Duration
	// RowsRead counts the table rows the answer read: those sampling
	// consumed, or every row an exact scan classified (Optimal).
	RowsRead int64
	// TreeSamples counts MCTS rounds performed.
	TreeSamples int64
	// SpeechesScored counts exact quality evaluations (optimal only).
	SpeechesScored int64
	// Transcript lists the utterances with their playback intervals.
	Transcript []voice.Utterance
	// BoundsSpoken lists the confidence-bound sentences emitted in
	// UncertaintyBounds mode, in speaking order.
	BoundsSpoken []string
	// Warning is the low-confidence warning spoken in UncertaintyWarn
	// mode, empty otherwise.
	Warning string
	// TableRows is the committed row count of the data snapshot the
	// answer was computed over. Streaming clients compare it against
	// ingest acknowledgements to audit answer freshness.
	TableRows int64
	// Degraded reports that the run hit its context deadline or was
	// cancelled before planning finished: the speech contains only what
	// was committed in time (at minimum the preamble) and is still
	// grammar-valid.
	Degraded bool
	// DegradeReason explains a degraded run ("context deadline exceeded"
	// or "context canceled"); empty when Degraded is false.
	DegradeReason string
}

// Text returns the full spoken text.
func (o *Output) Text() string { return o.Speech.Text() }
