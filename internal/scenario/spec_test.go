// Package scenario is a declarative end-to-end conformance registry for
// the voice-OLAP system, in the style of tast test bundles: one scenario
// is a named spec — dataset, planner knobs, fault profile, and a script of
// utterances with expected speech properties — and two runners execute the
// same spec. The in-process runner (see Run) drives nlq sessions and the
// core vocalizers directly and is what `go test ./internal/scenario/...`
// executes, race-detector clean and in parallel. The live runner (see
// RunLive, driven by TestScenariosLive) runs the identical specs over HTTP
// against in-process voiceolapd-style servers and additionally checks the
// admission layer's servedBy and status-code contracts.
//
// The registry converts the paper's implicit correctness knowledge —
// grammar-valid speech, truthful refinement tendencies, confidence-
// interval sanity, graceful degradation under storage faults and overload
// — into an executable, extensible conformance surface: adding a workload
// is writing one Spec literal.
//
// The package is test code, and every file of it is a _test.go file: no
// binary links it, and the registry, the runners and the checks live
// beside the tests that run them.
package scenario

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
)

// Scenario classes; every spec belongs to exactly one.
const (
	// ClassNominal marks clean-path workloads ported from examples/.
	ClassNominal = "nominal"
	// ClassASR marks scripts with injected speech-recognition noise.
	ClassASR = "asr"
	// ClassMultiTurn marks anaphora-heavy multi-turn scripts.
	ClassMultiTurn = "multiturn"
	// ClassFault marks scripts run against injected storage faults.
	ClassFault = "fault"
	// ClassOverload marks concurrent scripts that probe admission control.
	ClassOverload = "overload"
	// ClassUncertainty marks scripts checking the Section 4.4 extension.
	ClassUncertainty = "uncertainty"
	// ClassCache marks scripts that probe the semantic answer cache's
	// serving contract (replays, epoch invalidation, degraded exclusion).
	ClassCache = "cache"
	// ClassStream marks scripts that append rows mid-conversation and
	// check the freshness contract (epoch bumps, windowed scopes, zero
	// stale cache replays).
	ClassStream = "stream"
)

// DatasetSpec selects and sizes the generated dataset a scenario runs on.
type DatasetSpec struct {
	// Name is the dataset family: "flights" or "salaries".
	Name string
	// Rows sizes the generated table (flights only; zero selects 5000).
	Rows int
	// Seed drives generation; equal specs share one cached dataset.
	Seed int64
}

// PlannerSpec overrides core.Config knobs for the in-process runner; zero
// fields keep the runner's defaults (which mirror the live server's).
type PlannerSpec struct {
	// Seed drives the planner's randomized components (default 1).
	Seed int64
	// InitialRows, RowsPerRound, SamplesPerRound, MinRounds and
	// MaxRoundsPerSentence override the sampling budget.
	InitialRows          int
	RowsPerRound         int
	SamplesPerRound      int
	MinRounds            int
	MaxRoundsPerSentence int
	// Uncertainty selects the confidence extension for holistic answers.
	Uncertainty core.UncertaintyMode
	// WarnRelativeWidth is the warning trigger width (default 0.5).
	WarnRelativeWidth float64
}

// LiveSpec tunes the live server profile a scenario needs: the live runner
// boots a dedicated server with these options.
type LiveSpec struct {
	// MaxConcurrent bounds vocalization slots (zero keeps the default).
	MaxConcurrent int
	// QueueDepth bounds the admission queue (meaningful with
	// MaxConcurrent; zero sheds at saturation).
	QueueDepth int
	// AllowShed accepts clean 503 sheds as step outcomes instead of
	// violations — the overload contract is "refuse cleanly", not "never
	// refuse".
	AllowShed bool
	// SemCacheEntries sizes the server's semantic answer cache (zero keeps
	// the server default, negative disables — the same contract as
	// web.Options).
	SemCacheEntries int
}

// IngestSpec appends generated rows to the scenario's dataset mid-script
// through the serving side's streaming path, bumping its cache epoch.
// Rows are drawn from the flights generator's statistical model, so they
// always pass the streaming append's dictionary check.
type IngestSpec struct {
	// Rows is the batch size (zero selects 50).
	Rows int
	// Seed drives row generation.
	Seed int64
}

// CorruptSpec applies seeded ASR noise to a step's input before parsing.
type CorruptSpec struct {
	// Seed fixes the corruption stream.
	Seed int64
	// Rate is the per-word corruption probability (zero selects 1).
	Rate float64
	// Homophones enables whole-word homophone confusions.
	Homophones bool
}

// Expect declares the properties a step's outcome must satisfy. The zero
// value only checks that the step parses.
type Expect struct {
	// Action, when non-empty, pins the interpreter's Response.Action.
	Action string
	// ParseError expects the utterance to be rejected by the interpreter
	// (HTTP 422 in the live runner).
	ParseError bool
	// Speech expects a vocalized answer whose text conforms to the
	// grammar of whichever vocalizer served it.
	Speech bool
	// MaxChars bounds the spoken main text (zero: the grammar's own 300-
	// char preference is still enforced via conformance).
	MaxChars int
	// MinRefinements requires at least this many refinement sentences
	// (holistic, non-degraded answers only).
	MinRefinements int
	// Tendency verifies every refinement's spoken direction against the
	// exact query result, as a rate over planner seeds (check.go,
	// tendencySeeds; in-process only; skipped on degraded answers).
	Tendency bool
	// BoundsSane requires at least one spoken confidence bound, each
	// matching the bounds sentence form (in-process only).
	BoundsSane bool
	// Warning requires the low-confidence warning to be spoken
	// (in-process only).
	Warning bool
	// Degraded, when non-nil, pins the answer's degraded flag.
	Degraded *bool
	// ServedBy, when non-empty, pins the serving path: "this", "prior",
	// or "cache" for a semantic-cache replay (live runner only — the
	// in-process runner has no cache and ignores it). Requires Speech.
	ServedBy string
	// MinEpoch, when positive, requires the answer's dataEpoch to be at
	// least this value — the freshness proof that earlier Ingest steps
	// are visible (live runner only; requires Speech).
	MinEpoch int64
}

// Step is one utterance of a scenario script.
type Step struct {
	// Input is the clean utterance.
	Input string
	// Corrupt, when non-nil, replaces Input with its seeded ASR-noise
	// corruption before parsing.
	Corrupt *CorruptSpec
	// Method selects the vocalizer: "this" (default) or "prior".
	Method string
	// Ingest, when non-nil, replaces the utterance with a serving-side
	// streaming append: the live runner ships a generated batch to the
	// server's ingest endpoint, bumping the dataset's cache epoch. The
	// in-process runner (no cache, no server) treats it as a no-op.
	// Ingest steps carry no Input and no Expect.
	Ingest *IngestSpec
	// Expect declares the required outcome.
	Expect Expect
}

// Spec is one declarative scenario.
type Spec struct {
	// Name uniquely identifies the scenario ("nominal/regions-seasons").
	Name string
	// Desc says what the scenario proves, for humans.
	Desc string
	// Class is the scenario's workload class (one of the Class constants).
	Class string
	// Dataset selects the generated dataset.
	Dataset DatasetSpec
	// Planner overrides in-process planner knobs.
	Planner PlannerSpec
	// Faults injects storage faults into every matching scan.
	Faults faults.InjectorOptions
	// StepTimeout bounds each vocalization (in-process: the context
	// deadline; live: the profile's RequestTimeout). Zero means generous.
	StepTimeout time.Duration
	// Live tunes the dedicated live-server profile.
	Live LiveSpec
	// Parallel runs the script in this many concurrent sessions (default
	// 1); each session gets an independent nlq state over the shared
	// dataset.
	Parallel int
	// Script is the utterance sequence every session walks through.
	Script []Step
}

// mutatesServer reports whether any step appends to the dataset
// mid-script, which leaves the server dirty for later specs.
func (s *Spec) mutatesServer() bool {
	for _, st := range s.Script {
		if st.Ingest != nil {
			return true
		}
	}
	return false
}

// registry state; Register runs from init and tests read concurrently.
var (
	regMu   sync.Mutex
	regList []*Spec
	regByNm = map[string]*Spec{}
)

// Register adds a spec to the registry; it panics on invalid or duplicate
// specs so a bad registration fails the build's tests immediately.
func Register(s *Spec) {
	if err := s.validate(); err != nil {
		panic(fmt.Sprintf("scenario: register %q: %v", s.Name, err))
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := regByNm[s.Name]; dup {
		panic(fmt.Sprintf("scenario: duplicate scenario %q", s.Name))
	}
	regByNm[s.Name] = s
	regList = append(regList, s)
}

// validate rejects malformed specs.
func (s *Spec) validate() error {
	if s.Name == "" {
		return fmt.Errorf("name required")
	}
	if s.Desc == "" {
		return fmt.Errorf("desc required")
	}
	if s.Class == "" {
		return fmt.Errorf("class required")
	}
	switch s.Dataset.Name {
	case "flights", "salaries":
	default:
		return fmt.Errorf("unknown dataset %q", s.Dataset.Name)
	}
	if len(s.Script) == 0 {
		return fmt.Errorf("empty script")
	}
	for i, st := range s.Script {
		switch st.Method {
		case "", "this", "prior":
		default:
			return fmt.Errorf("step %d: unknown method %q", i, st.Method)
		}
		if st.Expect.ParseError && st.Expect.Speech {
			return fmt.Errorf("step %d: ParseError and Speech are exclusive", i)
		}
		switch st.Expect.ServedBy {
		case "", "this", "prior", "cache":
		default:
			return fmt.Errorf("step %d: unknown ServedBy %q", i, st.Expect.ServedBy)
		}
		if st.Expect.ServedBy != "" && !st.Expect.Speech {
			return fmt.Errorf("step %d: ServedBy requires Speech", i)
		}
		if st.Expect.MinEpoch < 0 {
			return fmt.Errorf("step %d: negative MinEpoch", i)
		}
		if st.Expect.MinEpoch > 0 && !st.Expect.Speech {
			return fmt.Errorf("step %d: MinEpoch requires Speech", i)
		}
		if st.Ingest != nil {
			if st.Input != "" || st.Corrupt != nil || st.Method != "" || st.Expect != (Expect{}) {
				return fmt.Errorf("step %d: an Ingest step carries no input, method, or expectations", i)
			}
			if s.Dataset.Name != "flights" {
				// Generated ingest batches come from the flights row model.
				return fmt.Errorf("step %d: Ingest is only supported on the flights dataset", i)
			}
		}
	}
	if s.mutatesServer() {
		if s.Parallel > 1 {
			return fmt.Errorf("ingest steps require a single session (Parallel <= 1)")
		}
		if s.Live == (LiveSpec{}) {
			// An ingest mutates its server for the rest of the run;
			// sharing the clean default profile would corrupt every later
			// spec.
			return fmt.Errorf("ingest steps require a dedicated live profile (non-zero Live)")
		}
	}
	return nil
}

// All returns the registered specs sorted by name.
func All() []*Spec {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]*Spec, len(regList))
	copy(out, regList)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ByName returns a registered spec, or nil.
func ByName(name string) *Spec {
	regMu.Lock()
	defer regMu.Unlock()
	return regByNm[name]
}

// pbool makes Expect.Degraded literals readable.
func pbool(b bool) *bool { return &b }

// TestSpecValidate registers nothing: it hands validate one malformed spec
// per rule and checks that rule is the one that refuses it.
func TestSpecValidate(t *testing.T) {
	query := Step{Input: "break down by season", Expect: Expect{Speech: true}}
	ingest := Step{Ingest: &IngestSpec{Rows: 10, Seed: 1}}
	valid := func() *Spec {
		return &Spec{
			Name: "test/valid", Desc: "a well-formed spec", Class: ClassStream,
			Dataset: flights5k, Live: LiveSpec{SemCacheEntries: 8},
			Script: []Step{query, ingest, query},
		}
	}
	if err := valid().validate(); err != nil {
		t.Fatalf("valid spec refused: %v", err)
	}
	cases := []struct {
		name  string
		spoil func(s *Spec)
		want  string
	}{
		{"no name", func(s *Spec) { s.Name = "" }, "name required"},
		{"no desc", func(s *Spec) { s.Desc = "" }, "desc required"},
		{"no class", func(s *Spec) { s.Class = "" }, "class required"},
		{"unknown dataset", func(s *Spec) { s.Dataset.Name = "cars" }, "unknown dataset"},
		{"empty script", func(s *Spec) { s.Script = nil }, "empty script"},
		{"unknown method", func(s *Spec) { s.Script[0].Method = "best" }, "unknown method"},
		{"parse error and speech", func(s *Spec) { s.Script[0].Expect.ParseError = true }, "exclusive"},
		{"unknown servedBy", func(s *Spec) { s.Script[0].Expect.ServedBy = "oracle" }, "unknown ServedBy"},
		{"servedBy without speech", func(s *Spec) {
			s.Script[0].Expect = Expect{ServedBy: "cache"}
		}, "ServedBy requires Speech"},
		{"negative MinEpoch", func(s *Spec) { s.Script[2].Expect.MinEpoch = -1 }, "negative MinEpoch"},
		{"MinEpoch without speech", func(s *Spec) {
			s.Script[2].Expect = Expect{MinEpoch: 1}
		}, "MinEpoch requires Speech"},
		{"ingest step with input", func(s *Spec) { s.Script[1].Input = "drill down" }, "carries no input"},
		{"ingest on salaries", func(s *Spec) { s.Dataset = salariesStd }, "only supported on the flights dataset"},
		{"ingest with parallel sessions", func(s *Spec) { s.Parallel = 2 }, "single session"},
		{"ingest on the shared profile", func(s *Spec) { s.Live = LiveSpec{} }, "dedicated live profile"},
	}
	for _, c := range cases {
		s := valid()
		c.spoil(s)
		err := s.validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: validate = %v, want an error containing %q", c.name, err, c.want)
		}
	}
}
