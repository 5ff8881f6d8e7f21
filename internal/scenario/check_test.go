package scenario

import (
	"context"
	"strings"
	"testing"

	"repro/internal/nlq"
	"repro/internal/olap"
	"repro/internal/speech"
	"repro/internal/stats"
)

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
	_, _, res, base, gen := regionSeason(t)
	seen := 0
	for _, r := range gen.Refinements(nil) {
		if r.Percent != 50 || !strings.Contains(r.Text(), "Winter") {
			continue
		}
		seen++
		wrong := wrongDirection(res, base.Extend(r))
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
