package datagen

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/olap"
	"repro/internal/speech"
	"repro/internal/voice"
)

func TestStarFlightsMatchesDenormalized(t *testing.T) {
	// Same seed and rows: the star-schema dataset must produce the exact
	// same cancellation structure as the denormalized one, since the
	// generators share factor normalization and random stream consumption
	// order.
	star, err := StarFlights(FlightsConfig{Rows: 30000, Seed: 9})
	if err != nil {
		t.Fatalf("StarFlights: %v", err)
	}
	flat, err := Flights(FlightsConfig{Rows: 30000, Seed: 9})
	if err != nil {
		t.Fatalf("Flights: %v", err)
	}
	q := func(d *olap.Dataset) olap.Query {
		return olap.Query{
			Fct: olap.Avg, Col: "cancelled",
			GroupBy: []olap.GroupBy{
				{Hierarchy: d.HierarchyByName("start airport"), Level: 1},
				{Hierarchy: d.HierarchyByName("flight date"), Level: 1},
			},
		}
	}
	starRes, err := olap.Evaluate(star, q(star))
	if err != nil {
		t.Fatalf("Evaluate star: %v", err)
	}
	flatRes, err := olap.Evaluate(flat, q(flat))
	if err != nil {
		t.Fatalf("Evaluate flat: %v", err)
	}
	if starRes.Space().Size() != flatRes.Space().Size() {
		t.Fatalf("space sizes differ: %d vs %d", starRes.Space().Size(), flatRes.Space().Size())
	}
	// Match cells by name: member enumeration order may differ.
	flatByName := map[string]float64{}
	for i := 0; i < flatRes.Space().Size(); i++ {
		flatByName[flatRes.Space().AggregateName(i)] = flatRes.Value(i)
	}
	for i := 0; i < starRes.Space().Size(); i++ {
		name := starRes.Space().AggregateName(i)
		got := starRes.Value(i)
		want, ok := flatByName[name]
		if !ok {
			t.Fatalf("aggregate %q missing from flat result", name)
		}
		if math.IsNaN(got) != math.IsNaN(want) || (!math.IsNaN(got) && math.Abs(got-want) > 1e-12) {
			t.Errorf("%s: star %v, flat %v", name, got, want)
		}
	}
}

func TestStarFlightsVocalizes(t *testing.T) {
	star, err := StarFlights(FlightsConfig{Rows: 20000, Seed: 10})
	if err != nil {
		t.Fatalf("StarFlights: %v", err)
	}
	q := olap.Query{
		Fct: olap.Avg, Col: "cancelled",
		ColDescription: "average cancellation probability",
		GroupBy: []olap.GroupBy{
			{Hierarchy: star.HierarchyByName("start airport"), Level: 1},
			{Hierarchy: star.HierarchyByName("flight date"), Level: 1},
		},
	}
	cfg := core.Config{
		Format:               speech.PercentFormat,
		Seed:                 1,
		Clock:                voice.NewSimClock(),
		MaxRoundsPerSentence: 1000,
		Percents:             []int{50, 100},
	}
	out, err := core.NewHolistic(star, q, cfg).Vocalize()
	if err != nil {
		t.Fatalf("holistic over star schema: %v", err)
	}
	if out.Speech.Baseline == nil {
		t.Fatal("no baseline produced")
	}
	quality, err := core.ExactQuality(star, q, out, cfg)
	if err != nil {
		t.Fatalf("ExactQuality: %v", err)
	}
	if quality <= 0 {
		t.Errorf("quality = %v, want positive", quality)
	}
}

func TestStarFlightsFactSchema(t *testing.T) {
	star, err := StarFlights(FlightsConfig{Rows: 100, Seed: 2})
	if err != nil {
		t.Fatalf("StarFlights: %v", err)
	}
	tab := star.Table()
	// The fact table stores the FKs, the measure, and the three joined
	// dimension columns.
	if n := len(tab.Columns()); n != 7 {
		t.Errorf("fact columns = %d, want 7", n)
	}
	for _, v := range []string{"airport", "month", "airline"} {
		if _, err := tab.StringColumn(v); err != nil {
			t.Errorf("joined column %q missing: %v", v, err)
		}
	}
}
