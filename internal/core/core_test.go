package core

import (
	"context"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/dimension"
	"repro/internal/olap"
	"repro/internal/speech"
	"repro/internal/stats"
	"repro/internal/voice"
)

// testConfig keeps runs fast and deterministic: simulated clock, reduced
// percent menu, bounded planning rounds.
func testConfig(seed int64) Config {
	return Config{
		Percents:             []int{50, 100},
		Seed:                 seed,
		Clock:                voice.NewSimClock(),
		MaxRoundsPerSentence: 2000,
	}
}

func flightsQuery(t *testing.T, rows int, seed int64) (*olap.Dataset, olap.Query) {
	t.Helper()
	d, err := datagen.Flights(datagen.FlightsConfig{Rows: rows, Seed: seed})
	if err != nil {
		t.Fatalf("Flights: %v", err)
	}
	q := olap.Query{
		Fct: olap.Avg, Col: "cancelled",
		ColDescription: "average cancellation probability",
		GroupBy: []olap.GroupBy{
			{Hierarchy: d.HierarchyByName("start airport"), Level: 1},
			{Hierarchy: d.HierarchyByName("flight date"), Level: 1},
		},
	}
	return d, q
}

func TestHolisticProducesValidSpeech(t *testing.T) {
	d, q := flightsQuery(t, 20000, 51)
	out, err := NewHolistic(d, q, testConfig(1)).Vocalize()
	if err != nil {
		t.Fatalf("Vocalize: %v", err)
	}
	sp := out.Speech
	if sp.Preamble == nil || sp.Baseline == nil {
		t.Fatal("speech should have preamble and baseline")
	}
	if !sp.Valid(speech.DefaultPrefs()) {
		t.Errorf("invalid speech: %q", sp.MainText())
	}
	if len(sp.Refinements) == 0 {
		t.Error("holistic should add refinements within the budget")
	}
	if out.RowsRead == 0 || out.TreeSamples == 0 {
		t.Error("holistic should sample rows and the tree")
	}
	// Transcript: preamble + baseline + refinements, in order.
	if len(out.Transcript) != 1+sp.NumFragments() {
		t.Errorf("transcript = %d utterances, want %d", len(out.Transcript), 1+sp.NumFragments())
	}
	if !strings.HasPrefix(out.Transcript[0].Text, "Considering") {
		t.Errorf("first utterance should be the preamble, got %q", out.Transcript[0].Text)
	}
}

func TestHolisticDeterministicWithSeed(t *testing.T) {
	d, q := flightsQuery(t, 20000, 52)
	a, err := NewHolistic(d, q, testConfig(7)).Vocalize()
	if err != nil {
		t.Fatalf("Vocalize: %v", err)
	}
	b, err := NewHolistic(d, q, testConfig(7)).Vocalize()
	if err != nil {
		t.Fatalf("Vocalize: %v", err)
	}
	if a.Text() != b.Text() {
		t.Errorf("same seed should reproduce the speech:\n%s\nvs\n%s", a.Text(), b.Text())
	}
}

// TestConcurrentAnswersOnOneSimClock plans eight answers at once from one
// Config, and so one *voice.SimClock: each must speak what its seed speaks
// planned alone, after as many tree samples, and carry the same trace:
// every window's rounds, rows, samples and leader's reward bits. An answer
// that shared the configured clock would have its playback advanced by the
// others' rounds, and its planning windows cut short; answers that shared a
// trace would record each other's windows.
func TestConcurrentAnswersOnOneSimClock(t *testing.T) {
	d, q := flightsQuery(t, 20000, 52)
	const answers = 8
	shared := testConfig(0)
	type window struct {
		rounds        int
		rows, samples int64
		rewardBits    uint64
	}
	type plan struct {
		text    string
		samples int64
		windows []window
	}
	run := func(seed int64) (plan, error) {
		cfg := shared
		cfg.Seed = seed
		out, err := NewHolistic(d, q, cfg).Vocalize()
		if err != nil {
			return plan{}, err
		}
		p := plan{text: out.Text(), samples: out.TreeSamples}
		for _, w := range out.Trace.Sentences {
			p.windows = append(p.windows, window{w.Rounds, w.RowsRead, w.TreeSamples, math.Float64bits(w.BestMeanReward)})
		}
		return p, nil
	}
	alone := make([]plan, answers)
	for i := range alone {
		var err error
		if alone[i], err = run(int64(i)); err != nil {
			t.Fatalf("seed %d alone: %v", i, err)
		}
	}
	together := make([]plan, answers)
	errs := make([]error, answers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range together {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			together[i], errs[i] = run(int64(i))
		}(i)
	}
	close(start)
	wg.Wait()
	for i := range together {
		if errs[i] != nil {
			t.Fatalf("seed %d together: %v", i, errs[i])
		}
		if together[i].text != alone[i].text || together[i].samples != alone[i].samples {
			t.Errorf("seed %d planned with %d others spoke after %d samples\n%q\nalone after %d\n%q",
				i, answers-1, together[i].samples, together[i].text, alone[i].samples, alone[i].text)
		}
		if !slices.Equal(together[i].windows, alone[i].windows) {
			t.Errorf("seed %d planned with %d others traced windows %+v, alone %+v",
				i, answers-1, together[i].windows, alone[i].windows)
		}
		if len(alone[i].windows) == 0 {
			t.Errorf("seed %d traced no window", i)
		}
	}
}

func TestHolisticLatencyBeatsOptimal(t *testing.T) {
	d, q := flightsQuery(t, 100000, 53)
	cfg := testConfig(2)
	// Real clocks for latency comparison: the holistic approach speaks
	// before reading the table; optimal scans and scores everything first.
	cfg.Clock = voice.RealClock{}
	cfg.MaxRoundsPerSentence = 50
	cfg.MinRounds = 10
	hOut, err := NewHolistic(d, q, cfg).Vocalize()
	if err != nil {
		t.Fatalf("holistic: %v", err)
	}
	oOut, err := NewOptimal(d, q, cfg).Vocalize()
	if err != nil {
		t.Fatalf("optimal: %v", err)
	}
	if hOut.Latency >= oOut.Latency {
		t.Errorf("holistic latency %v should beat optimal %v", hOut.Latency, oOut.Latency)
	}
}

func TestOptimalMaximizesQuality(t *testing.T) {
	d, q := flightsQuery(t, 20000, 54)
	cfg := testConfig(3)
	oOut, err := NewOptimal(d, q, cfg).Vocalize()
	if err != nil {
		t.Fatalf("optimal: %v", err)
	}
	if oOut.SpeechesScored == 0 {
		t.Error("optimal should score the plan space")
	}
	oQ, err := ExactQuality(d, q, oOut, cfg)
	if err != nil {
		t.Fatalf("ExactQuality: %v", err)
	}
	// No other vocalizer may beat the optimal quality.
	hOut, err := NewHolistic(d, q, cfg).Vocalize()
	if err != nil {
		t.Fatalf("holistic: %v", err)
	}
	hQ, err := ExactQuality(d, q, hOut, cfg)
	if err != nil {
		t.Fatalf("ExactQuality: %v", err)
	}
	if hQ > oQ+1e-9 {
		t.Errorf("holistic quality %v exceeds optimal %v", hQ, oQ)
	}
	if oQ <= 0 {
		t.Errorf("optimal quality = %v, want positive", oQ)
	}
}

// TestOptimalMatchesScalarSearch re-runs the optimal plan-space search
// with the pre-scorer scalar implementation (Model.Quality per candidate)
// and requires the incremental-scorer search to choose the identical
// speech with the identical candidate count — the acceptance bar for
// swapping in the kernel ("unchanged math, only evaluation order").
func TestOptimalMatchesScalarSearch(t *testing.T) {
	d, q := flightsQuery(t, 20000, 100)
	cfg := testConfig(9)
	o := NewOptimal(d, q, cfg)
	s, err := newSession(d, q, cfg)
	if err != nil {
		t.Fatalf("newSession: %v", err)
	}
	result, err := olap.EvaluateSpace(s.space)
	if err != nil {
		t.Fatalf("EvaluateSpace: %v", err)
	}
	scale := result.GrandValue()
	if err := s.buildModel(scale); err != nil {
		t.Fatalf("buildModel: %v", err)
	}
	preamble := s.gen.NewPreamble()

	got, gotScored := o.searchBest(context.Background(), s, result, scale, preamble)

	// Reference: the scalar search exactly as it was before the scorer.
	var want *speech.Speech
	wantQ := -1.0
	var wantScored int64
	var extend func(sp *speech.Speech)
	extend = func(sp *speech.Speech) {
		qual := s.model.Quality(sp, result)
		wantScored++
		if qual > wantQ {
			wantQ = qual
			want = sp
		}
		if len(sp.Refinements) >= s.cfg.Prefs.MaxFragments {
			return
		}
		for _, r := range s.gen.Refinements(sp.Refinements) {
			ext := sp.Extend(r)
			if ext.Valid(s.cfg.Prefs) {
				extend(ext)
			}
		}
	}
	for _, b := range s.gen.BaselineCandidates(speech.SpeechScale(scale)) {
		extend(&speech.Speech{Preamble: preamble, Baseline: b})
	}

	if gotScored != wantScored {
		t.Errorf("scored %d candidates, scalar search scored %d", gotScored, wantScored)
	}
	if want == nil || got == nil {
		t.Fatal("both searches should find a speech")
	}
	if got.Text() != want.Text() {
		t.Errorf("chosen speech differs:\n  scorer: %q\n  scalar: %q", got.Text(), want.Text())
	}
}

// TestTightMaxCharsKeepsEveryOutputValid checks that under a character
// limit below the shortest baseline no vocalizer speaks an invalid speech:
// Holistic's tree admits no baseline at its root, and Optimal must not
// score one either.
func TestTightMaxCharsKeepsEveryOutputValid(t *testing.T) {
	d, q := flightsQuery(t, 20000, 1)
	for _, maxChars := range []int{20, 30, 40} {
		cfg := testConfig(1)
		cfg.Prefs = speech.Prefs{MaxChars: maxChars, MaxFragments: 2, SigDigits: 1}
		for _, v := range []Vocalizer{NewOptimal(d, q, cfg), NewHolistic(d, q, cfg)} {
			out, err := v.Vocalize()
			if err != nil {
				t.Fatalf("%s at %d chars: %v", v.Name(), maxChars, err)
			}
			if !out.Speech.Valid(cfg.Prefs) {
				t.Errorf("%s at %d chars speaks an invalid speech: %q (%d chars)",
					v.Name(), maxChars, out.Speech.MainText(), out.Speech.MainLen())
			}
		}
	}
}

func TestHolisticQualityNearOptimal(t *testing.T) {
	d, q := flightsQuery(t, 20000, 55)
	cfg := testConfig(4)
	oOut, err := NewOptimal(d, q, cfg).Vocalize()
	if err != nil {
		t.Fatalf("optimal: %v", err)
	}
	oQ, _ := ExactQuality(d, q, oOut, cfg)
	hOut, err := NewHolistic(d, q, cfg).Vocalize()
	if err != nil {
		t.Fatalf("holistic: %v", err)
	}
	hQ, _ := ExactQuality(d, q, hOut, cfg)
	if hQ < 0.5*oQ {
		t.Errorf("holistic quality %v too far below optimal %v", hQ, oQ)
	}
}

func TestUnmergedUnderperformsHolistic(t *testing.T) {
	d, q := flightsQuery(t, 20000, 56)
	cfg := testConfig(5)
	// The unmerged budget admits 500 rounds at 1 ms; holistic gets that
	// per sentence. Use several seeds and compare average quality.
	var hSum, uSum float64
	for seed := int64(0); seed < 3; seed++ {
		c := cfg
		c.Seed = seed
		hOut, err := NewHolistic(d, q, c).Vocalize()
		if err != nil {
			t.Fatalf("holistic: %v", err)
		}
		hQ, _ := ExactQuality(d, q, hOut, c)
		hSum += hQ

		// Starve the unmerged baseline the way the paper does: the fixed
		// budget is a fraction of what pipelining provides.
		c.Budget = 20 * time.Millisecond
		uOut, err := NewUnmerged(d, q, c).Vocalize()
		if err != nil {
			t.Fatalf("unmerged: %v", err)
		}
		uQ, _ := ExactQuality(d, q, uOut, c)
		uSum += uQ
	}
	if uSum >= hSum {
		t.Errorf("unmerged total quality %v should trail holistic %v", uSum, hSum)
	}
}

func TestUnmergedSpeaksOnce(t *testing.T) {
	d, q := flightsQuery(t, 20000, 57)
	out, err := NewUnmerged(d, q, testConfig(6)).Vocalize()
	if err != nil {
		t.Fatalf("unmerged: %v", err)
	}
	if len(out.Transcript) != 1 {
		t.Errorf("unmerged should speak the whole answer at once, got %d utterances", len(out.Transcript))
	}
	if out.Speech.Baseline == nil {
		t.Error("unmerged should commit to a baseline")
	}
	if out.Latency < 0 {
		t.Error("negative latency")
	}
}

// TestUnmergedFallbackWithoutSamples: when no tree sample lands in the
// budget, Unmerged speaks the rung of the baseline ladder nearest the grand
// estimate of its initial rows, not the ladder's lowest (0.25x) rung.
func TestUnmergedFallbackWithoutSamples(t *testing.T) {
	d, q := flightsQuery(t, 20000, 58)
	cfg := testConfig(7)
	// Building the tree takes longer than the budget, so no round fits.
	cfg.Budget = time.Nanosecond
	cfg.SimNodeCost = time.Microsecond
	out, err := NewUnmerged(d, q, cfg).Vocalize()
	if err != nil {
		t.Fatalf("unmerged: %v", err)
	}
	if out.TreeSamples != 0 {
		t.Fatalf("%d tree samples landed in a 1 ns budget", out.TreeSamples)
	}
	if out.Speech.Baseline == nil {
		t.Fatal("fallback should still speak a baseline")
	}

	// The same session's initial rows, read by hand, give the estimate.
	s, err := newSession(d, q, cfg)
	if err != nil {
		t.Fatalf("newSession: %v", err)
	}
	defer s.release()
	_, scale, err := s.readInitialRows(context.Background())
	if err != nil {
		t.Fatalf("readInitialRows: %v", err)
	}
	cands := s.gen.BaselineCandidates(speech.SpeechScale(scale))
	if scale <= 0 || len(cands) < 2 {
		t.Fatalf("initial rows gave scale %v and %d rungs; the test needs a ladder", scale, len(cands))
	}
	got := out.Speech.Baseline.Value
	onLadder := false
	for _, c := range cands {
		onLadder = onLadder || c.Value == got
		if math.Abs(c.Value-scale) < math.Abs(got-scale) {
			t.Errorf("fallback spoke %v, but rung %v is nearer the estimate %v", got, c.Value, scale)
		}
	}
	if !onLadder {
		t.Errorf("fallback spoke %v, which is no rung of the ladder", got)
	}
}

func TestHolisticWithFilterQuery(t *testing.T) {
	d, _ := flightsQuery(t, 20000, 59)
	airport := d.HierarchyByName("start airport")
	ne := airport.FindMember("the North East")
	q := olap.Query{
		Fct: olap.Avg, Col: "cancelled",
		ColDescription: "average cancellation probability",
		Filters:        []*dimension.Member{ne},
		GroupBy: []olap.GroupBy{
			{Hierarchy: d.HierarchyByName("flight date"), Level: 1},
			{Hierarchy: d.HierarchyByName("airline"), Level: 1},
		},
	}
	out, err := NewHolistic(d, q, testConfig(10)).Vocalize()
	if err != nil {
		t.Fatalf("holistic with filter: %v", err)
	}
	if !strings.Contains(out.Text(), "flights starting from the North East") {
		t.Errorf("preamble should mention the filter:\n%s", out.Text())
	}
	// No refinement may reference an airport outside the filter.
	for _, r := range out.Speech.Refinements {
		for _, p := range r.Preds {
			if p.Hierarchy() == airport && !p.IsDescendantOf(ne) {
				t.Errorf("refinement predicate %v escapes the filter scope", p)
			}
		}
	}
}

func TestHolisticCountQuery(t *testing.T) {
	d, _ := flightsQuery(t, 20000, 60)
	q := olap.Query{
		Fct:            olap.Count,
		ColDescription: "number of flights",
		GroupBy: []olap.GroupBy{
			{Hierarchy: d.HierarchyByName("start airport"), Level: 1},
		},
	}
	cfg := testConfig(8)
	cfg.Format = speech.PlainFormat
	out, err := NewHolistic(d, q, cfg).Vocalize()
	if err != nil {
		t.Fatalf("holistic count: %v", err)
	}
	if out.Speech.Baseline == nil {
		t.Fatal("count query should produce a baseline")
	}
	if out.Speech.Baseline.Value <= 0 {
		t.Errorf("count baseline = %v, want positive", out.Speech.Baseline.Value)
	}
}

func TestExactQualityOfTruthfulSpeechBeatsWrong(t *testing.T) {
	d, q := flightsQuery(t, 20000, 61)
	cfg := testConfig(9)
	out, err := NewOptimal(d, q, cfg).Vocalize()
	if err != nil {
		t.Fatalf("optimal: %v", err)
	}
	qual, err := ExactQuality(d, q, out, cfg)
	if err != nil {
		t.Fatalf("ExactQuality: %v", err)
	}
	// Replace the baseline with a wildly wrong value.
	wrong := out.Speech.Clone()
	wrongBaseline := *out.Speech.Baseline
	wrongBaseline.Value *= 100
	wrong.Baseline = &wrongBaseline
	wrongOut := &Output{Speech: wrong}
	wrongQ, err := ExactQuality(d, q, wrongOut, cfg)
	if err != nil {
		t.Fatalf("ExactQuality: %v", err)
	}
	if wrongQ >= qual {
		t.Errorf("wrong baseline quality %v should trail optimal %v", wrongQ, qual)
	}
}

// TestHolisticShortTableReadsEveryRowOnce: a table shorter than the initial
// batch (100 rows < InitialRows 4096) is drained by the first read, every
// later round reads nothing, and the answer is still a valid speech.
func TestHolisticShortTableReadsEveryRowOnce(t *testing.T) {
	d, q := flightsQuery(t, 100, 108)
	out, err := NewHolistic(d, q, testConfig(8)).Vocalize()
	requireValidSpeech(t, out, err)
	if out.RowsRead != 100 {
		t.Errorf("read %d rows of a 100-row table, want each exactly once", out.RowsRead)
	}
	if out.Degraded {
		t.Errorf("a drained table is not a fault: degraded with %q", out.DegradeReason)
	}
}

// TestScaleEstimateSpread: the scale estimate that seeds the baseline ladder
// and σ must not hinge on a handful of positive rows. On the 2 % 0/1
// cancellation measure its relative spread (standard deviation over mean,
// 32 seeds) stays under 0.2 at the default initial batch; at the former
// default of 256 rows, about five positives, it does not.
func TestScaleEstimateSpread(t *testing.T) {
	d, q := flightsQuery(t, 200000, 61)
	spread := func(initialRows int) float64 {
		var acc stats.Accumulator
		for seed := int64(1); seed <= 32; seed++ {
			s, err := newSession(d, q, Config{Seed: seed, InitialRows: initialRows})
			if err != nil {
				t.Fatal(err)
			}
			s.sampler.ReadRows(s.cfg.InitialRows)
			scale, _ := s.sampler.Cache().GrandEstimate()
			acc.Add(scale)
		}
		t.Logf("InitialRows %d: scale %.4f +- %.4f over 32 seeds",
			Config{InitialRows: initialRows}.Normalize().InitialRows, acc.Mean(), acc.StdDev())
		return acc.StdDev() / acc.Mean()
	}
	const bound = 0.2
	if got := spread(0); got >= bound {
		t.Errorf("relative spread of the scale estimate at the default %d initial rows = %.3f, want < %v",
			Config{}.Normalize().InitialRows, got, bound)
	}
	if got := spread(256); got < bound {
		t.Errorf("relative spread at 256 initial rows = %.3f: the bound %v no longer tells the two apart", got, bound)
	}
}

func TestConfigNormalize(t *testing.T) {
	cfg := Config{}.Normalize()
	if cfg.Prefs.MaxChars != 300 {
		t.Error("defaults not applied")
	}
	if cfg.Budget != InteractivityThreshold {
		t.Error("default budget should be the interactivity threshold")
	}
	if cfg.WarnRelativeWidth != 0.5 {
		t.Error("uncertainty defaults not applied")
	}
	if _, ok := cfg.Clock.(voice.RealClock); !ok {
		t.Error("default clock should be real")
	}
}
