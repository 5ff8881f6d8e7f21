package scenario

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/faults"
	"repro/internal/nlq"
	"repro/internal/olap"
	"repro/internal/speech"
	"repro/internal/voice"
)

// datasetProfile carries the spoken measure a dataset family vocalizes.
type datasetProfile struct {
	col, desc string
	format    speech.ValueFormat
}

// profiles mirrors the live server's dataset registrations; Run speaks with
// it and ServerPool.boot registers from it.
var profiles = map[string]datasetProfile{
	"flights":  {col: "cancelled", desc: "average cancellation probability", format: speech.PercentFormat},
	"salaries": {col: "midCareerSalary", desc: "average mid-career salary", format: speech.ThousandsFormat},
}

// datasetCache shares generated datasets across scenarios: generation is
// the dominant setup cost and datasets are immutable after binding.
var datasetCache sync.Map // DatasetSpec -> *olap.Dataset

// dataset builds (or reuses) the dataset for the spec.
func dataset(ds DatasetSpec) (*olap.Dataset, error) {
	if d, ok := datasetCache.Load(ds); ok {
		return d.(*olap.Dataset), nil
	}
	var d *olap.Dataset
	var err error
	switch ds.Name {
	case "flights":
		rows := ds.Rows
		if rows <= 0 {
			rows = 5000
		}
		d, err = datagen.Flights(datagen.FlightsConfig{Rows: rows, Seed: ds.Seed})
	case "salaries":
		d, err = datagen.Salaries(datagen.SalariesConfig{Seed: ds.Seed})
	default:
		err = fmt.Errorf("scenario: unknown dataset %q", ds.Name)
	}
	if err != nil {
		return nil, err
	}
	actual, _ := datasetCache.LoadOrStore(ds, d)
	return actual.(*olap.Dataset), nil
}

// plannerConfig assembles the in-process core configuration for a spec: a
// simulated clock (responses are immediate, as on the server), the live
// server's budget caps, the spec's planner overrides, and its injector.
func plannerConfig(s *Spec, inj *faults.Injector) core.Config {
	pl := s.Planner
	cfg := core.Config{
		Seed:                 pl.Seed,
		Clock:                voice.NewSimClock(),
		SimRoundCost:         time.Millisecond,
		MaxRoundsPerSentence: 500,
		MaxTreeNodes:         50000,
		InitialRows:          pl.InitialRows,
		RowsPerRound:         pl.RowsPerRound,
		SamplesPerRound:      pl.SamplesPerRound,
		MinRounds:            pl.MinRounds,
		Uncertainty:          pl.Uncertainty,
		Confidence:           pl.Confidence,
		WarnRelativeWidth:    pl.WarnRelativeWidth,
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if pl.MaxRoundsPerSentence > 0 {
		cfg.MaxRoundsPerSentence = pl.MaxRoundsPerSentence
	}
	if inj != nil {
		cfg.Scanner = inj.Scanner
	}
	return cfg
}

// StepResult records one executed step.
type StepResult struct {
	// Step is the script index; Session distinguishes Parallel workers.
	Step    int `json:"step"`
	Session int `json:"session"`
	// Input is the utterance actually parsed (after corruption).
	Input string `json:"input"`
	// Action is the interpreter's classification ("" on parse errors).
	Action string `json:"action,omitempty"`
	// Spoke reports a vocalized answer; Degraded its deadline flag.
	Spoke    bool `json:"spoke,omitempty"`
	Degraded bool `json:"degraded,omitempty"`
	// ServedBy is the vocalizer that answered; Fallback the admission
	// layer's reason when it differs from the requested method (live
	// runner only).
	ServedBy string `json:"servedBy,omitempty"`
	Fallback string `json:"fallback,omitempty"`
	// Shed marks a clean live-runner refusal (429/503).
	Shed bool `json:"shed,omitempty"`
	// Latency is the answer's wall time.
	Latency time.Duration `json:"-"`
}

// Result is one scenario run.
type Result struct {
	Spec       *Spec
	Steps      []StepResult
	Violations []Violation
	Wall       time.Duration
}

// Passed reports a clean run.
func (r *Result) Passed() bool { return len(r.Violations) == 0 }

// Run executes a spec in-process: real nlq sessions and vocalizers, no
// HTTP. Parallel > 1 runs that many independent sessions concurrently over
// the shared dataset (the race detector then covers the planner and scan
// paths under contention).
//
// Run stays beside RunLive because it checks what an HTTP reply cannot
// show: the tendency rate over tendencySeeds planner seeds, spoken bounds
// and the low-confidence warning (Uncertainty), MinRefinements, staged/live
// Clone isolation on every step, and the spec's Planner overrides, which
// the pool's servers ignore (they all serve core.Config{Seed}).
func Run(ctx context.Context, s *Spec) (*Result, error) {
	d, err := dataset(s.Dataset)
	if err != nil {
		return nil, err
	}
	prof := profiles[s.Dataset.Name]
	var inj *faults.Injector
	if s.Faults.Enabled() {
		inj = faults.NewInjector(s.Faults)
	}
	cfg := plannerConfig(s, inj)

	workers := s.Parallel
	if workers < 1 {
		workers = 1
	}
	start := time.Now()
	results := make([]*sessionRun, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w] = runSession(ctx, s, d, prof, cfg, w)
		}(w)
	}
	wg.Wait()

	res := &Result{Spec: s, Wall: time.Since(start)}
	for _, sr := range results {
		res.Steps = append(res.Steps, sr.steps...)
		res.Violations = append(res.Violations, sr.violations.list...)
	}
	return res, nil
}

// sessionRun is one worker's outcome.
type sessionRun struct {
	steps      []StepResult
	violations violations
}

// runSession walks one session through the script. Every step replays the
// web layer's stage-then-commit discipline — parse on a clone first, then
// on the live session — so Clone isolation is exercised by every scenario,
// not just dedicated tests.
func runSession(ctx context.Context, s *Spec, d *olap.Dataset, prof datasetProfile, cfg core.Config, worker int) *sessionRun {
	sr := &sessionRun{}
	sess, err := nlq.NewSession(d, olap.Avg, prof.col, prof.desc)
	if err != nil {
		sr.violations.step = -1
		sr.violations.addf("setup", "session: %v", err)
		return sr
	}
	for i, step := range s.Script {
		sr.violations.step = i
		if step.Reload != nil || step.Ingest != nil {
			// Epoch bumps are a serving-layer concern: the in-process
			// runner has no cache to invalidate, so a reload or ingest is
			// a no-op and the script keeps speaking against the original
			// data.
			input := "(reload)"
			if step.Ingest != nil {
				input = "(ingest)"
			}
			sr.steps = append(sr.steps, StepResult{Step: i, Session: worker, Input: input})
			continue
		}
		input := step.Input
		if c := step.Corrupt; c != nil {
			input = nlq.NewCorrupter(nlq.CorruptConfig{
				Seed: c.Seed + int64(worker), Rate: c.Rate, Homophones: c.Homophones,
			}).Corrupt(input)
		}
		rec := StepResult{Step: i, Session: worker, Input: input}

		before := sess.Summary()
		staged := sess.Clone()
		stagedResp, stagedErr := staged.Parse(input)
		if after := sess.Summary(); after != before {
			sr.violations.addf("isolation", "staged parse of %q mutated the live session", input)
		}
		resp, err := sess.Parse(input)
		if (stagedErr == nil) != (err == nil) {
			sr.violations.addf("isolation", "staged/live parse divergence on %q: %v vs %v", input, stagedErr, err)
		}

		if step.Expect.ParseError {
			if err == nil {
				sr.violations.addf("parse", "expected %q to be rejected, got action %q", input, resp.Action)
			}
			sr.steps = append(sr.steps, rec)
			continue
		}
		if err != nil {
			sr.violations.addf("parse", "parse %q: %v", input, err)
			sr.steps = append(sr.steps, rec)
			continue
		}
		if stagedErr == nil && (stagedResp.Action != resp.Action || stagedResp.IsQuery != resp.IsQuery) {
			sr.violations.addf("isolation", "staged/live response mismatch on %q: %q vs %q",
				input, stagedResp.Action, resp.Action)
		}
		rec.Action = resp.Action
		if e := step.Expect; e.Action != "" && resp.Action != e.Action {
			sr.violations.addf("action", "input %q: action %q, want %q", input, resp.Action, e.Action)
		}

		if resp.IsQuery && step.Expect.Speech {
			vocalizeStep(ctx, s, d, prof, cfg, sess.Query(), step, &rec, &sr.violations)
		} else if step.Expect.Speech {
			sr.violations.addf("speech", "input %q expected to vocalize but produced action %q", input, resp.Action)
		}
		sr.steps = append(sr.steps, rec)
	}
	return sr
}

// vocalizeStep runs the step's vocalizer under the spec's deadline and
// applies the speech expectations.
func vocalizeStep(ctx context.Context, s *Spec, d *olap.Dataset, prof datasetProfile, cfg core.Config, q olap.Query, step Step, rec *StepResult, vs *violations) {
	if s.StepTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.StepTimeout)
		defer cancel()
	}
	method := step.Method
	if method == "" {
		method = "this"
	}
	rec.ServedBy = method
	start := time.Now()
	switch method {
	case "prior":
		out, err := baseline.NewPrior(d, q, baseline.Config{
			Format:      prof.format,
			MergeValues: true,
		}).VocalizeContext(ctx)
		rec.Latency = time.Since(start)
		if err != nil {
			vs.addf("vocalize", "prior: %v (faults must degrade, not error)", err)
			return
		}
		rec.Spoke, rec.Degraded = true, out.Truncated
		vs.checkSpeechText(out.Text, "prior", step.Expect)
		vs.checkDegraded(out.Truncated, step.Expect)
	default:
		c := cfg
		c.Format = prof.format
		out, err := core.NewHolistic(d, q, c).VocalizeContext(ctx)
		rec.Latency = time.Since(start)
		if err != nil {
			vs.addf("vocalize", "holistic: %v (faults must degrade, not error)", err)
			return
		}
		rec.Spoke, rec.Degraded = true, out.Degraded
		vs.checkSpeechText(out.Text(), "this", step.Expect)
		vs.checkDegraded(out.Degraded, step.Expect)
		vs.checkHolisticShape(out, step.Expect)
		vs.checkUncertainty(out, step.Expect)
		if step.Expect.Tendency && !out.Degraded {
			vs.checkTendency(ctx, d, q, c, out.Speech)
		}
	}
}
