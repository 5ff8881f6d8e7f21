package encode

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/belief"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/olap"
	"repro/internal/speech"
	"repro/internal/voice"
)

func testDataset(t *testing.T) *olap.Dataset {
	t.Helper()
	d, err := datagen.Flights(datagen.FlightsConfig{Rows: 10000, Seed: 131})
	if err != nil {
		t.Fatalf("Flights: %v", err)
	}
	return d
}

func TestSpeechRoundTripPreservesSemantics(t *testing.T) {
	d := testDataset(t)
	q := olap.Query{
		Fct: olap.Avg, Col: "cancelled",
		ColDescription: "average cancellation probability",
		GroupBy: []olap.GroupBy{
			{Hierarchy: d.HierarchyByName("start airport"), Level: 1},
			{Hierarchy: d.HierarchyByName("flight date"), Level: 1},
		},
	}
	cfg := core.Config{
		Percents:             []int{50, 100},
		Seed:                 1,
		Clock:                voice.NewSimClock(),
		MaxRoundsPerSentence: 800,
	}
	out, err := core.NewHolistic(d, q, cfg).Vocalize()
	if err != nil {
		t.Fatalf("holistic: %v", err)
	}
	j := EncodeSpeech(out.Speech)
	raw, err := json.Marshal(j)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var backJSON Speech
	if err := json.Unmarshal(raw, &backJSON); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	back, err := DecodeSpeech(d, backJSON)
	if err != nil {
		t.Fatalf("DecodeSpeech: %v", err)
	}
	if back.Text() != out.Speech.Text() {
		t.Errorf("text changed:\n%s\nvs\n%s", back.Text(), out.Speech.Text())
	}
	// Belief semantics survive: the decoded speech scores identically.
	space, err := olap.NewSpace(d, q)
	if err != nil {
		t.Fatalf("NewSpace: %v", err)
	}
	result, err := olap.EvaluateSpace(space)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	model, err := belief.NewModel(space, belief.SigmaFromScale(result.GrandValue()))
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	origQ := model.Quality(out.Speech, result)
	backQ := model.Quality(back, result)
	if math.Abs(origQ-backQ) > 1e-12 {
		t.Errorf("quality changed: %v vs %v", origQ, backQ)
	}
}

func TestDecodeSpeechErrors(t *testing.T) {
	d := testDataset(t)
	if _, err := DecodeSpeech(d, Speech{Baseline: &Baseline{Format: "hex"}}); err == nil {
		t.Error("unknown format should fail")
	}
	if _, err := DecodeSpeech(d, Speech{Refinements: []Refinement{{Direction: "wobble"}}}); err == nil {
		t.Error("unknown direction should fail")
	}
	if _, err := DecodeSpeech(d, Speech{Refinements: []Refinement{{
		Direction: "increase",
		Preds:     []MemberRef{{Dimension: "start airport", Level: 1, Name: "Atlantis"}},
	}}}); err == nil {
		t.Error("unknown member should fail")
	}
}

func TestEncodeSpeechEmpty(t *testing.T) {
	j := EncodeSpeech(&speech.Speech{})
	if j.Preamble != nil || j.Baseline != nil || len(j.Refinements) != 0 {
		t.Error("empty speech should encode empty")
	}
	d := testDataset(t)
	back, err := DecodeSpeech(d, j)
	if err != nil {
		t.Fatalf("DecodeSpeech: %v", err)
	}
	if back.Text() != "" {
		t.Error("empty round trip should stay empty")
	}
}
