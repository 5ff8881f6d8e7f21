package speech

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dimension"
)

const sampleSpeech = "Considering flights starting from any airport and flights scheduled in any date. " +
	"Results are broken down by region and season. " +
	"Around two percent is the average cancellation probability. " +
	"Values increase by 50 percent for flights starting from the North East. " +
	"Values increase by 100 percent for flights scheduled in Winter."

func TestParseFullSpeech(t *testing.T) {
	p := Parser{Strict: true}
	ps, err := p.Parse(sampleSpeech)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(ps.ScopePhrases) != 2 {
		t.Errorf("scope phrases = %v", ps.ScopePhrases)
	}
	if len(ps.LevelNames) != 2 || ps.LevelNames[0] != "region" || ps.LevelNames[1] != "season" {
		t.Errorf("level names = %v", ps.LevelNames)
	}
	if ps.BaselineValue != "two percent" {
		t.Errorf("baseline value = %q", ps.BaselineValue)
	}
	if ps.AggName != "average cancellation probability" {
		t.Errorf("agg name = %q", ps.AggName)
	}
	if len(ps.Refinements) != 2 {
		t.Fatalf("refinements = %d", len(ps.Refinements))
	}
	r := ps.Refinements[0]
	if r.Dir != Increase || r.Percent != 50 {
		t.Errorf("refinement 0 = %+v", r)
	}
	if len(r.PredPhrases) != 1 || r.PredPhrases[0] != "flights starting from the North East" {
		t.Errorf("pred phrases = %v", r.PredPhrases)
	}
}

func TestParseMultiPredicateRefinement(t *testing.T) {
	text := "Around one percent is the average cancellation probability. " +
		"Values decrease by 20 percent for flights starting from Boston and flights scheduled in Summer."
	ps, err := Parser{}.Parse(text)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(ps.Refinements) != 1 {
		t.Fatalf("refinements = %d", len(ps.Refinements))
	}
	r := ps.Refinements[0]
	if r.Dir != Decrease || r.Percent != 20 || len(r.PredPhrases) != 2 {
		t.Errorf("refinement = %+v", r)
	}
}

func TestParseErrors(t *testing.T) {
	strict := Parser{Strict: true}
	if _, err := strict.Parse(""); !errors.Is(err, ErrNoPreamble) {
		t.Errorf("empty text: %v", err)
	}
	if _, err := strict.Parse("Hello world."); !errors.Is(err, ErrNoPreamble) {
		t.Errorf("non-grammar opener: %v", err)
	}
	if _, err := strict.Parse("Considering flights."); !errors.Is(err, ErrNoBaseline) {
		t.Errorf("preamble only in strict mode: %v", err)
	}
	if _, err := strict.Parse("Considering flights. Something odd happens here."); !errors.Is(err, ErrNoBaseline) {
		t.Errorf("bad baseline: %v", err)
	}
	relaxed := Parser{}
	if _, err := relaxed.Parse("Around one percent is the rate. Values explode for everything."); !errors.Is(err, ErrBadRefinement) {
		t.Errorf("bad refinement: %v", err)
	}
	if _, err := relaxed.Parse("Considering x."); err != nil {
		t.Errorf("preamble-only should pass relaxed: %v", err)
	}
}

func TestConforms(t *testing.T) {
	if !(Parser{Strict: true}).Conforms(sampleSpeech) {
		t.Error("sample speech should conform")
	}
	if (Parser{Strict: true}).Conforms("The weather is nice.") {
		t.Error("non-grammar text should not conform")
	}
}

// TestRenderedSpeechesConform round-trips generated speeches through the
// parser: everything the system renders must be in the grammar.
func TestRenderedSpeechesConform(t *testing.T) {
	airport, date := testDims(t)
	ne := airport.FindMember("the North East")
	boston := airport.Leaf("Boston")
	winter := date.FindMember("Winter")
	base := &Speech{
		Preamble: &Preamble{
			ScopePhrases: []string{"flights starting from any airport", "flights scheduled in any date"},
			LevelNames:   []string{"region", "season"},
		},
		Baseline: &Baseline{Value: 0.02, AggName: "average cancellation probability", Format: PercentFormat},
	}
	speeches := []*Speech{
		base,
		base.Extend(&Refinement{Preds: []*dimension.Member{ne}, Dir: Increase, Percent: 50}),
		base.Extend(&Refinement{Preds: []*dimension.Member{boston, winter}, Dir: Decrease, Percent: 10}),
	}
	strict := Parser{Strict: true}
	for _, sp := range speeches {
		text := sp.Text()
		ps, err := strict.Parse(text)
		if err != nil {
			t.Errorf("rendered speech does not parse: %v\n%s", err, text)
			continue
		}
		if len(ps.Refinements) != len(sp.Refinements) {
			t.Errorf("refinement count mismatch: parsed %d, built %d",
				len(ps.Refinements), len(sp.Refinements))
		}
		for i, pr := range ps.Refinements {
			if pr.Percent != sp.Refinements[i].Percent || pr.Dir != sp.Refinements[i].Dir {
				t.Errorf("refinement %d mismatch: %+v vs %+v", i, pr, sp.Refinements[i])
			}
		}
	}
}

// TestRandomSpeechesRoundTripProperty: speeches assembled from random
// grammar fragments always parse back with matching structure.
func TestRandomSpeechesRoundTripProperty(t *testing.T) {
	airport, date := testDims(t)
	preds := []*dimension.Member{
		airport.FindMember("the North East"),
		airport.FindMember("the Midwest"),
		airport.Leaf("Boston"),
		date.FindMember("Winter"),
		date.FindMember("Summer"),
	}
	percents := []int{5, 10, 20, 50, 100, 200}
	strict := Parser{Strict: true}
	f := func(seed int64, nRefs uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		sp := &Speech{
			Preamble: &Preamble{ScopePhrases: []string{"flights starting from any airport"}},
			Baseline: &Baseline{Value: 0.02, AggName: "average cancellation probability", Format: PercentFormat},
		}
		n := int(nRefs) % 4
		for i := 0; i < n; i++ {
			dir := Increase
			if rng.Intn(2) == 1 {
				dir = Decrease
			}
			sp = sp.Extend(&Refinement{
				Preds:   []*dimension.Member{preds[rng.Intn(len(preds))]},
				Dir:     dir,
				Percent: percents[rng.Intn(len(percents))],
			})
		}
		ps, err := strict.Parse(sp.Text())
		if err != nil {
			return false
		}
		if len(ps.Refinements) != n {
			return false
		}
		for i, pr := range ps.Refinements {
			if pr.Percent != sp.Refinements[i].Percent || pr.Dir != sp.Refinements[i].Dir {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSplitHelpers(t *testing.T) {
	if got := splitConjunction("a, b and c"); len(got) != 3 {
		t.Errorf("splitConjunction = %v", got)
	}
	if got := splitConjunction("only"); len(got) != 1 || got[0] != "only" {
		t.Errorf("splitConjunction single = %v", got)
	}
	if got := splitSentences("One. Two. "); len(got) != 2 || got[0] != "One." {
		t.Errorf("splitSentences = %v", got)
	}
	if splitSentences("  ") != nil {
		t.Error("blank input should split to nil")
	}
}
