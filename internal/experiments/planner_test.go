package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestPlannerSmoke runs the full planner benchmark at toy scale and checks
// the result's internal consistency.
func TestPlannerSmoke(t *testing.T) {
	r, err := Planner(PlannerConfig{Rows: 8000, Seed: 12, Rounds: 300, Dims: "RD"})
	if err != nil {
		t.Fatalf("Planner: %v", err)
	}
	if !r.IdenticalChoice {
		t.Error("both searches should choose the identical speech")
	}
	if r.SpeechesScored < 50 {
		t.Errorf("scored only %d speeches", r.SpeechesScored)
	}
	if r.ScalarNsPerSpeech <= 0 || r.ScorerNsPerSpeech <= 0 || r.ScorerSpeedup <= 0 {
		t.Errorf("quality timings missing: scalar %v, scorer %v ns/speech, %.2fx",
			r.ScalarNsPerSpeech, r.ScorerNsPerSpeech, r.ScorerSpeedup)
	}
	if r.SequentialRoundsPerSec <= 0 {
		t.Error("sequential sampling throughput missing")
	}
	if r.Gomaxprocs <= 0 {
		t.Error("gomaxprocs stamp missing")
	}

	var buf bytes.Buffer
	PrintPlanner(&buf, r)
	if !strings.Contains(buf.String(), "incremental scorer") {
		t.Errorf("summary missing scorer line:\n%s", buf.String())
	}
	buf.Reset()
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if !strings.Contains(buf.String(), "\"scorer_speedup\"") {
		t.Error("JSON missing scorer_speedup field")
	}
}
