package userstudy

import (
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/speech"
)

func TestRunExploratoryFlights(t *testing.T) {
	d, err := datagen.Flights(datagen.FlightsConfig{Rows: 20000, Seed: 111})
	if err != nil {
		t.Fatalf("Flights: %v", err)
	}
	res, err := RunExploratory(d, "cancelled", "average cancellation probability",
		speech.PercentFormat, ExploratoryConfig{Sessions: 4, MeanQueries: 5, Seed: 1})
	if err != nil {
		t.Fatalf("RunExploratory: %v", err)
	}
	if res.Queries == 0 {
		t.Fatal("no queries issued")
	}
	total := 0
	for _, c := range res.Prefs {
		total += c
	}
	if total != 4 {
		t.Errorf("preference votes = %d, want 4 sessions", total)
	}
	// Table 9's core finding: prior output is longer on average and its
	// maximum dwarfs ours.
	if res.Lengths.PriorAvg <= res.Lengths.ThisAvg {
		t.Errorf("prior avg %d should exceed this avg %d",
			res.Lengths.PriorAvg, res.Lengths.ThisAvg)
	}
	if res.Lengths.PriorMax <= res.Lengths.ThisMax {
		t.Errorf("prior max %d should exceed this max %d",
			res.Lengths.PriorMax, res.Lengths.ThisMax)
	}
}

func TestRunExploratorySalary(t *testing.T) {
	d, err := datagen.Salaries(datagen.SalariesConfig{Seed: 112})
	if err != nil {
		t.Fatalf("Salaries: %v", err)
	}
	res, err := RunExploratory(d, "midCareerSalary", "average mid-career salary",
		speech.ThousandsFormat, ExploratoryConfig{Sessions: 3, MeanQueries: 5, Seed: 2})
	if err != nil {
		t.Fatalf("RunExploratory: %v", err)
	}
	if res.Queries == 0 {
		t.Fatal("no queries issued")
	}
	if res.Lengths.ThisAvg <= 0 || res.Lengths.PriorAvg <= 0 {
		t.Error("lengths should be positive")
	}
}

func TestRunExploratoryDeterministic(t *testing.T) {
	d, err := datagen.Flights(datagen.FlightsConfig{Rows: 10000, Seed: 113})
	if err != nil {
		t.Fatalf("Flights: %v", err)
	}
	cfg := ExploratoryConfig{Sessions: 2, MeanQueries: 4, Seed: 3}
	a, err := RunExploratory(d, "cancelled", "x", speech.PercentFormat, cfg)
	if err != nil {
		t.Fatalf("RunExploratory: %v", err)
	}
	b, err := RunExploratory(d, "cancelled", "x", speech.PercentFormat, cfg)
	if err != nil {
		t.Fatalf("RunExploratory: %v", err)
	}
	if a.Lengths != b.Lengths || a.Prefs != b.Prefs {
		t.Error("same seed should reproduce the study")
	}
}

func TestPrefBucketThresholds(t *testing.T) {
	cases := []struct {
		score float64
		want  int
	}{
		{-2, PrefPriorStrong},
		{-0.3, PrefPriorSlight},
		{0, PrefNeutral},
		{0.8, PrefThisSlight},
		{2, PrefThisStrong},
	}
	for _, c := range cases {
		if got := prefBucket(c.score); got != c.want {
			t.Errorf("prefBucket(%v) = %d, want %d", c.score, got, c.want)
		}
	}
}

func TestExtractFacts(t *testing.T) {
	d, err := datagen.Flights(datagen.FlightsConfig{Rows: 50000, Seed: 114})
	if err != nil {
		t.Fatalf("Flights: %v", err)
	}
	facts, err := ExtractFacts(d)
	if err != nil {
		t.Fatalf("ExtractFacts: %v", err)
	}
	if len(facts) != 3 {
		t.Fatalf("facts = %d, want 3", len(facts))
	}
	// Fact 1: the dominant season is Winter (planted in Table 12).
	if !strings.Contains(facts[0].Text, "Winter") {
		t.Errorf("seasonal fact should name Winter: %q", facts[0].Text)
	}
	// Fact 2: an airline/city lift statement.
	if !strings.Contains(facts[1].Text, "more likely than normal") {
		t.Errorf("combo fact malformed: %q", facts[1].Text)
	}
	// Fact 3: the leading region is the North East (planted).
	if !strings.Contains(facts[2].Text, "the North East") {
		t.Errorf("regional fact should name the North East: %q", facts[2].Text)
	}
}

func TestExtractFactsWrongDataset(t *testing.T) {
	d, err := datagen.Salaries(datagen.SalariesConfig{Seed: 1})
	if err != nil {
		t.Fatalf("Salaries: %v", err)
	}
	if _, err := ExtractFacts(d); err == nil {
		t.Error("facts require the flight hierarchies")
	}
}
