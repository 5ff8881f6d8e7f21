package baseline

import (
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/olap"
	"repro/internal/speech"
)

func flightsSetup(t *testing.T) (*olap.Dataset, olap.Query) {
	t.Helper()
	d, err := datagen.Flights(datagen.FlightsConfig{Rows: 20000, Seed: 81})
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

func TestPriorEnumeratesEverything(t *testing.T) {
	d, q := flightsSetup(t)
	out, err := NewPrior(d, q, Config{Format: speech.PercentFormat}).Vocalize()
	if err != nil {
		t.Fatalf("Vocalize: %v", err)
	}
	// One sentence per region (5 regions x seasons enumerated inside).
	if out.Sentences != 5 {
		t.Errorf("sentences = %d, want 5", out.Sentences)
	}
	for _, region := range []string{"the North East", "the Midwest", "the South", "the West", "the United States territories"} {
		if !strings.Contains(out.Text, region) {
			t.Errorf("output missing region %q", region)
		}
	}
	for _, season := range []string{"Winter", "Spring", "Summer", "Fall"} {
		if !strings.Contains(out.Text, season) {
			t.Errorf("output missing season %q", season)
		}
	}
	if !strings.Contains(out.Text, "percent") {
		t.Error("values should be rendered as percentages")
	}
}

func TestPriorSingleDimension(t *testing.T) {
	d, _ := flightsSetup(t)
	q := olap.Query{
		Fct: olap.Avg, Col: "cancelled",
		ColDescription: "average cancellation probability",
		GroupBy:        []olap.GroupBy{{Hierarchy: d.HierarchyByName("flight date"), Level: 1}},
	}
	out, err := NewPrior(d, q, Config{Format: speech.PercentFormat}).Vocalize()
	if err != nil {
		t.Fatalf("Vocalize: %v", err)
	}
	if out.Sentences != 1 {
		t.Errorf("single-dim result should be one sentence, got %d", out.Sentences)
	}
	if !strings.HasPrefix(out.Text, "The average cancellation probability is") {
		t.Errorf("sentence start = %q", out.Text[:50])
	}
}

func TestPriorLengthGrowsWithDimensions(t *testing.T) {
	d, _ := flightsSetup(t)
	q2 := olap.Query{
		Fct: olap.Avg, Col: "cancelled",
		ColDescription: "average cancellation probability",
		GroupBy: []olap.GroupBy{
			{Hierarchy: d.HierarchyByName("start airport"), Level: 1},
			{Hierarchy: d.HierarchyByName("flight date"), Level: 1},
		},
	}
	q3 := olap.Query{
		Fct: olap.Avg, Col: "cancelled",
		ColDescription: "average cancellation probability",
		GroupBy: []olap.GroupBy{
			{Hierarchy: d.HierarchyByName("start airport"), Level: 2},
			{Hierarchy: d.HierarchyByName("flight date"), Level: 2},
			{Hierarchy: d.HierarchyByName("airline"), Level: 1},
		},
	}
	out2, err := NewPrior(d, q2, Config{Format: speech.PercentFormat}).Vocalize()
	if err != nil {
		t.Fatalf("Vocalize 2d: %v", err)
	}
	out3, err := NewPrior(d, q3, Config{Format: speech.PercentFormat}).Vocalize()
	if err != nil {
		t.Fatalf("Vocalize 3d: %v", err)
	}
	// The exponential blow-up of Table 9: the fine-grained query's output
	// must dwarf the coarse one by more than an order of magnitude.
	if len(out3.Text) < 10*len(out2.Text) {
		t.Errorf("3-dim output (%d chars) should dwarf 2-dim output (%d chars)",
			len(out3.Text), len(out2.Text))
	}
}

func TestPriorEmptyAggregates(t *testing.T) {
	d, _ := flightsSetup(t)
	// City x month at 20k rows leaves some cells empty.
	q := olap.Query{
		Fct: olap.Avg, Col: "cancelled",
		ColDescription: "average cancellation probability",
		GroupBy: []olap.GroupBy{
			{Hierarchy: d.HierarchyByName("start airport"), Level: 4},
			{Hierarchy: d.HierarchyByName("airline"), Level: 1},
		},
	}
	small, err := datagen.Flights(datagen.FlightsConfig{Rows: 500, Seed: 82})
	if err != nil {
		t.Fatalf("Flights: %v", err)
	}
	q.GroupBy[0].Hierarchy = small.HierarchyByName("start airport")
	q.GroupBy[1].Hierarchy = small.HierarchyByName("airline")
	out, err := NewPrior(small, q, Config{Format: speech.PercentFormat}).Vocalize()
	if err != nil {
		t.Fatalf("Vocalize: %v", err)
	}
	if !strings.Contains(out.Text, "unknown") {
		t.Error("empty aggregates should read as unknown")
	}
}

func TestSameRounded(t *testing.T) {
	if !sameRounded(0.021, 0.019, 1) {
		t.Error("both round to 0.02")
	}
	if sameRounded(0.021, 0.029, 1) {
		t.Error("0.02 vs 0.03")
	}
	nan := func() float64 { var z float64; return z / z }()
	if !sameRounded(nan, nan, 1) || sameRounded(nan, 1, 1) {
		t.Error("NaN comparison wrong")
	}
}

func TestJoinNames(t *testing.T) {
	if joinNames(nil) != "" || joinNames([]string{"a"}) != "a" {
		t.Error("short joins wrong")
	}
	if joinNames([]string{"a", "b"}) != "a and b" {
		t.Error("pair join wrong")
	}
	if joinNames([]string{"a", "b", "c"}) != "a, b and c" {
		t.Error("triple join wrong")
	}
}

func TestPriorDefaultAggName(t *testing.T) {
	d, q := flightsSetup(t)
	q.ColDescription = ""
	out, err := NewPrior(d, q, Config{Format: speech.PercentFormat}).Vocalize()
	if err != nil {
		t.Fatalf("Vocalize: %v", err)
	}
	if !strings.Contains(out.Text, "average cancelled") {
		t.Errorf("default agg name missing:\n%.200s", out.Text)
	}
}
