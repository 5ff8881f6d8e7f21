package scenario

import (
	"context"
	"fmt"
	"slices"
	"sync"

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

// plannerConfig assembles the core configuration for a spec: a simulated
// clock (responses are immediate, as on the server), the runners' budget
// caps, the spec's planner overrides, and its injector. The live runner's
// servers serve it for a spec without overrides.
func plannerConfig(s *Spec, inj *faults.Injector) core.Config {
	pl := s.Planner
	cfg := core.Config{
		Seed:                 pl.Seed,
		Clock:                voice.NewSimClock(),
		MaxRoundsPerSentence: 500,
		MaxTreeNodes:         50000,
		InitialRows:          pl.InitialRows,
		RowsPerRound:         pl.RowsPerRound,
		SamplesPerRound:      pl.SamplesPerRound,
		MinRounds:            pl.MinRounds,
		Uncertainty:          pl.Uncertainty,
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

// Run executes a spec in-process — real nlq sessions and vocalizers, no
// HTTP — and returns its violations. Parallel > 1 runs that many
// independent sessions concurrently over the shared dataset (the race
// detector then covers the planner and scan paths under contention).
//
// Run stays beside RunLive because it checks what an HTTP reply cannot
// show: the tendency rate over tendencySeeds planner seeds, spoken bounds
// and the low-confidence warning (Uncertainty), MinRefinements, staged/live
// Clone isolation on every step, and the spec's Planner overrides, which
// the pool's servers ignore (they all serve plannerConfig without them).
func Run(ctx context.Context, s *Spec) ([]Violation, error) {
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
	return perSession(s, func(worker int) []Violation {
		return runSession(ctx, s, d, prof, cfg, worker)
	}), nil
}

// perSession runs session once per Parallel worker, concurrently, and
// returns their violations in worker order.
func perSession(s *Spec, session func(worker int) []Violation) []Violation {
	results := make([][]Violation, max(s.Parallel, 1))
	var wg sync.WaitGroup
	for w := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[w] = session(w)
		}()
	}
	wg.Wait()
	return slices.Concat(results...)
}

// input is the utterance worker parses: the step's Input, or its seeded
// ASR-noise corruption.
func (st Step) input(worker int) string {
	c := st.Corrupt
	if c == nil {
		return st.Input
	}
	return nlq.NewCorrupter(nlq.CorruptConfig{
		Seed: c.Seed + int64(worker), Rate: c.Rate, Homophones: c.Homophones,
	}).Corrupt(st.Input)
}

// method is the step's vocalizer, "this" unless it asks for "prior".
func (st Step) method() string {
	if st.Method == "" {
		return "this"
	}
	return st.Method
}

// runSession walks one session through the script. Every step replays the
// web layer's stage-then-commit discipline — parse on a clone first, then
// on the live session — so Clone isolation is exercised by every scenario,
// not just dedicated tests.
func runSession(ctx context.Context, s *Spec, d *olap.Dataset, prof datasetProfile, cfg core.Config, worker int) []Violation {
	var vs violations
	sess, err := nlq.NewSession(d, olap.Avg, prof.col, prof.desc)
	if err != nil {
		vs.step = -1
		vs.addf("setup", "session: %v", err)
		return vs.list
	}
	for i, step := range s.Script {
		vs.step = i
		if step.Reload != nil || step.Ingest != nil {
			// Epoch bumps are a serving-layer concern: the in-process
			// runner has no cache to invalidate, so a reload or ingest is
			// a no-op and the script keeps speaking against the original
			// data.
			continue
		}
		input := step.input(worker)

		before := sess.Summary()
		staged := sess.Clone()
		stagedResp, stagedErr := staged.Parse(input)
		if after := sess.Summary(); after != before {
			vs.addf("isolation", "staged parse of %q mutated the live session", input)
		}
		resp, err := sess.Parse(input)
		if (stagedErr == nil) != (err == nil) {
			vs.addf("isolation", "staged/live parse divergence on %q: %v vs %v", input, stagedErr, err)
		}

		if step.Expect.ParseError {
			if err == nil {
				vs.addf("parse", "expected %q to be rejected, got action %q", input, resp.Action)
			}
			continue
		}
		if err != nil {
			vs.addf("parse", "parse %q: %v", input, err)
			continue
		}
		if stagedErr == nil && (stagedResp.Action != resp.Action || stagedResp.IsQuery != resp.IsQuery) {
			vs.addf("isolation", "staged/live response mismatch on %q: %q vs %q",
				input, stagedResp.Action, resp.Action)
		}
		if e := step.Expect; e.Action != "" && resp.Action != e.Action {
			vs.addf("action", "input %q: action %q, want %q", input, resp.Action, e.Action)
		}

		if resp.IsQuery && step.Expect.Speech {
			vocalizeStep(ctx, s, d, prof, cfg, sess.Query(), step, &vs)
		} else if step.Expect.Speech {
			vs.addf("speech", "input %q expected to vocalize but produced action %q", input, resp.Action)
		}
	}
	return vs.list
}

// vocalizeStep runs the step's vocalizer under the spec's deadline and
// applies the speech expectations.
func vocalizeStep(ctx context.Context, s *Spec, d *olap.Dataset, prof datasetProfile, cfg core.Config, q olap.Query, step Step, vs *violations) {
	if s.StepTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.StepTimeout)
		defer cancel()
	}
	switch step.method() {
	case "prior":
		out, err := baseline.NewPrior(d, q, baseline.Config{Format: prof.format}).VocalizeContext(ctx)
		if err != nil {
			vs.addf("vocalize", "prior: %v (faults must degrade, not error)", err)
			return
		}
		vs.checkSpeechText(out.Text, "prior", step.Expect)
		vs.checkDegraded(out.Truncated, step.Expect)
	default:
		c := cfg
		c.Format = prof.format
		out, err := core.NewHolistic(d, q, c).VocalizeContext(ctx)
		if err != nil {
			vs.addf("vocalize", "holistic: %v (faults must degrade, not error)", err)
			return
		}
		vs.checkSpeechText(out.Text(), "this", step.Expect)
		vs.checkDegraded(out.Degraded, step.Expect)
		vs.checkHolisticShape(out, step.Expect)
		vs.checkUncertainty(out, step.Expect)
		if step.Expect.Tendency && !out.Degraded {
			vs.checkTendency(ctx, d, q, c, out.Speech)
		}
	}
}
