package scenario

import (
	"context"
	"fmt"
	"math"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/nlq"
	"repro/internal/olap"
	"repro/internal/speech"
	"repro/internal/stats"
)

// Violation is one failed expectation, attributable to a script step.
type Violation struct {
	// Step is the zero-based script index (-1 for scenario-level checks).
	Step int `json:"step"`
	// Check names the violated property ("grammar", "tendency", ...).
	Check string `json:"check"`
	// Detail explains the failure.
	Detail string `json:"detail"`
}

func (v Violation) String() string {
	return fmt.Sprintf("step %d [%s]: %s", v.Step, v.Check, v.Detail)
}

// violations accumulates step-scoped findings.
type violations struct {
	step int
	list []Violation
}

func (vs *violations) addf(check, format string, args ...any) {
	vs.list = append(vs.list, Violation{Step: vs.step, Check: check, Detail: fmt.Sprintf(format, args...)})
}

// validSpeechText checks an answer's text against the grammar of the
// vocalizer that served it: holistic answers must parse under the speech
// grammar; the prior baseline's enumeration just needs well-formed
// sentences (the same contract internal/web's chaos test asserts).
func validSpeechText(text, servedBy string) bool {
	if servedBy == "prior" {
		t := strings.TrimSpace(text)
		return t != "" && strings.HasSuffix(t, ".")
	}
	return (speech.Parser{}).Conforms(text)
}

// checkSpeechText applies the transport-independent text expectations:
// grammar conformance and the explicit length cap.
func (vs *violations) checkSpeechText(text, servedBy string, e Expect) {
	if text == "" {
		vs.addf("speech", "expected a spoken answer, got none")
		return
	}
	if !validSpeechText(text, servedBy) {
		vs.addf("grammar", "answer served by %q violates its grammar: %q", servedBy, text)
	}
	if e.MaxChars > 0 && len(text) > e.MaxChars {
		vs.addf("length", "answer is %d chars, cap %d: %q", len(text), e.MaxChars, text)
	}
}

// boundsRe is the spoken confidence-bound sentence form of Section 4.4.
var boundsRe = regexp.MustCompile(`^Between .+ and .+ with \d+ percent confidence\.$`)

// checkUncertainty applies the BoundsSane and Warning expectations against
// a holistic output (in-process only: bounds and warnings ride on the
// structured Output, not the flat HTTP speech text).
func (vs *violations) checkUncertainty(out *core.Output, e Expect) {
	if e.BoundsSane {
		if len(out.BoundsSpoken) == 0 {
			vs.addf("bounds", "expected spoken confidence bounds, got none")
		}
		for _, b := range out.BoundsSpoken {
			if !boundsRe.MatchString(b) {
				vs.addf("bounds", "malformed bound sentence %q", b)
			}
		}
	}
	if e.Warning && out.Warning == "" {
		vs.addf("warning", "expected a low-confidence warning, none spoken")
	}
}

// tendencyTolerance is the relative slack granted to refinement
// directions: spoken tendencies come from sampled estimates, so a change
// smaller than this fraction of the involved values is direction-ambiguous
// and not a violation.
const tendencyTolerance = 0.10

// tendencySeeds and tendencyMinRight make the tendency check a rate over
// planner seeds instead of one draw. At the runner's 500 rounds a sentence a
// second or third refinement is committed on ~30 visits, so over 5 000 rows
// of a 2 % measure an answer speaks every direction right for about four
// planner seeds in five, whatever the row stream or the initial batch
// (EXPERIMENTS.md, "The tendency check is a rate"): one seed gates on luck
// and flips with any change to the stream. The step's own answer and the
// answers at the next tendencySeeds-1 planner seeds must get tendencyMinRight
// right between them. A planner at 0.8 falls short with probability 0.006,
// one whose directions are a coin (0.5) gets there with probability 0.11.
// The tolerance below swallows most small or zero-baseline speeches, so a
// planner given no rounds still reads 0.73: the floor catches inverted
// directions, not poor planning (ROADMAP item 6 (e)).
const (
	tendencySeeds    = 32
	tendencyMinRight = 20
)

// checkTendency verifies the spoken refinement directions against the exact
// query evaluation over tendencySeeds planner seeds: first is the step's
// answer (planned at cfg.Seed), the others are planned here. Degraded
// answers are not judged. Average queries only: for sums and counts the
// scope mean is not what the sentences describe.
func (vs *violations) checkTendency(ctx context.Context, d *olap.Dataset, q olap.Query, cfg core.Config, first *speech.Speech) {
	if q.Fct != olap.Avg {
		return
	}
	sums, counts, err := exactMoments(d, q)
	if err != nil {
		vs.addf("tendency", "exact evaluation failed: %v", err)
		return
	}
	judged, right, example := 0, 0, ""
	for k := 0; k < tendencySeeds; k++ {
		sp, c := first, cfg
		if k > 0 {
			c.Seed += int64(k)
			out, err := core.NewHolistic(d, q, c).VocalizeContext(ctx)
			if err != nil {
				vs.addf("vocalize", "holistic at planner seed %d: %v", c.Seed, err)
				return
			}
			if out.Degraded {
				continue
			}
			sp = out.Speech
		}
		judged++
		if wrong := wrongDirection(sums, counts, sp); wrong == "" {
			right++
		} else if example == "" {
			example = fmt.Sprintf("planner seed %d: %s", c.Seed, wrong)
		}
	}
	if right*tendencySeeds < tendencyMinRight*judged {
		vs.addf("tendency", "%d of %d planner seeds spoke every direction right, want %d of %d; %s",
			right, judged, tendencyMinRight, tendencySeeds, example)
	}
}

// wrongDirection checks each refinement's spoken direction under the
// paper's relative-refinement semantics: refinement i claims the values in
// its scope sit at reference + delta_i, where the reference folds in every
// preceding subsuming refinement. The claimed movement must point the same
// way as the true count-weighted scope mean's movement. It describes the
// first refinement that points the wrong way, or returns "". sums and
// counts are q's exact moments (exactMoments).
func wrongDirection(sums, counts *olap.Result, sp *speech.Speech) string {
	if sp == nil || sp.Baseline == nil {
		return ""
	}
	space := sums.Space()
	deltas := sp.Deltas()
	// The spoken baseline is rounded to one significant digit, so every
	// reference inherits that rounding error; a true move inside the slack
	// is invisible to the listener and must not count as a wrong direction.
	roundSlack := math.Abs(sp.Baseline.Value - sums.GrandValue()/counts.GrandValue())
	for i, r := range sp.Refinements {
		var sum, cnt float64
		for idx := 0; idx < space.Size(); idx++ {
			if space.InScope(idx, r.Preds) {
				sum += sums.Value(idx)
				cnt += counts.Value(idx)
			}
		}
		if cnt == 0 {
			continue // empty scope: nothing the sentence could misstate
		}
		actual := sum / cnt
		ref := sp.Baseline.Value
		for j := 0; j < i; j++ {
			if sp.Refinements[j].Subsumes(r) {
				ref += deltas[j]
			}
		}
		move := actual - ref
		tol := math.Max(tendencyTolerance*math.Max(math.Abs(ref), math.Abs(actual)), roundSlack)
		if math.Abs(move) <= tol {
			continue // too small a true change to pin a direction on
		}
		if (move > 0) != (r.Dir == speech.Increase) {
			return fmt.Sprintf("refinement %d (%s) claims values %s but true scope mean moves %+.4g from reference %.4g",
				i, r.Text(), r.Dir, move, ref)
		}
	}
	return ""
}

// exactMoments evaluates the average query q exactly twice, once summing
// its measure and once counting its rows, so the true mean of any scope of
// its space is a ratio of the two.
func exactMoments(d *olap.Dataset, q olap.Query) (sums, counts *olap.Result, err error) {
	q.Fct = olap.Sum
	if sums, err = olap.Evaluate(d, q); err != nil {
		return nil, nil, err
	}
	q.Fct = olap.Count
	counts, err = olap.Evaluate(d, q)
	return sums, counts, err
}

// checkHolisticShape applies structure expectations that need the parsed
// speech: refinement count floors (skipped when the answer degraded — a
// deadline-cut speech legitimately stops at the preamble).
func (vs *violations) checkHolisticShape(out *core.Output, e Expect) {
	if e.MinRefinements > 0 && !out.Degraded {
		if n := len(out.Speech.Refinements); n < e.MinRefinements {
			vs.addf("shape", "expected at least %d refinements, got %d", e.MinRefinements, n)
		}
	}
}

// checkDegraded pins the degraded flag when the expectation sets it.
func (vs *violations) checkDegraded(got bool, e Expect) {
	if e.Degraded != nil && got != *e.Degraded {
		vs.addf("degraded", "degraded = %v, want %v", got, *e.Degraded)
	}
}

// regionSeason returns the flagship query over flights5k with its exact
// result and a speech whose baseline is the rounded grand mean.
func regionSeason(t *testing.T) (*olap.Dataset, olap.Query, *olap.Result, *speech.Speech, *speech.Generator) {
	t.Helper()
	d, err := dataset(flights5k)
	if err != nil {
		t.Fatal(err)
	}
	prof := profiles["flights"]
	sess, err := nlq.NewSession(d, olap.Avg, prof.col, prof.desc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Parse("how does cancellation depend on region and season"); err != nil {
		t.Fatal(err)
	}
	res, err := olap.Evaluate(d, sess.Query())
	if err != nil {
		t.Fatal(err)
	}
	gen := speech.NewGenerator(res.Space(), speech.Prefs{}, prof.format)
	sp := &speech.Speech{
		Preamble: gen.NewPreamble(),
		Baseline: &speech.Baseline{Value: stats.RoundSig(res.GrandValue(), 1), AggName: prof.desc, Format: prof.format},
	}
	return d, sess.Query(), res, sp, gen
}

// TestWrongDirection: winter flights are cancelled about twice as often as
// the average, so "increase" passes and "decrease" is reported.
func TestWrongDirection(t *testing.T) {
	d, q, _, base, gen := regionSeason(t)
	sums, counts, err := exactMoments(d, q)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, r := range gen.Refinements(nil) {
		if r.Percent != 50 || !strings.Contains(r.Text(), "Winter") {
			continue
		}
		seen++
		wrong := wrongDirection(sums, counts, base.Extend(r))
		if (r.Dir == speech.Increase) != (wrong == "") {
			t.Errorf("%s: wrongDirection = %q", r.Text(), wrong)
		}
	}
	if seen != 2 {
		t.Fatalf("%d winter refinements by 50 percent in the menu, want 2", seen)
	}
}

// TestTendencyIsARate: the check passes or fails on the share of judged
// planner seeds that speak every direction right, not on the first answer.
func TestTendencyIsARate(t *testing.T) {
	d, q, _, base, gen := regionSeason(t)
	var up, down *speech.Speech
	for _, r := range gen.Refinements(nil) {
		if r.Percent == 50 && strings.Contains(r.Text(), "Winter") {
			if r.Dir == speech.Increase {
				up = base.Extend(r)
			} else {
				down = base.Extend(r)
			}
		}
	}
	if up == nil || down == nil {
		t.Fatal("no winter refinement in the menu")
	}
	s := ByName("nominal/flights-region-season")
	cfg := plannerConfig(s, nil)
	cfg.Format = profiles["flights"].format

	// A wrong first answer does not fail a planner that is right at the
	// usual rate over the following seeds.
	var vs violations
	vs.checkTendency(context.Background(), d, q, cfg, down)
	if len(vs.list) != 0 {
		t.Errorf("wrong first answer alone failed the check: %v", vs.list)
	}

	// Degraded answers are not judged: with the deadline gone only the first
	// answer is, and the rate is taken over what was judged.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	vs = violations{}
	vs.checkTendency(ctx, d, q, cfg, down)
	if len(vs.list) != 1 || vs.list[0].Check != "tendency" {
		t.Errorf("wrong answer, nothing else judged: %v", vs.list)
	}
	vs = violations{}
	vs.checkTendency(ctx, d, q, cfg, up)
	if len(vs.list) != 0 {
		t.Errorf("right answer, nothing else judged: %v", vs.list)
	}
}
