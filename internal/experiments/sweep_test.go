package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestScalingSweepSmoke runs a miniature grid and checks the invariants the
// artifact is judged by: the 1-worker evaluation is byte-identical to
// sequential, the GOMAXPROCS=1 column always runs, every requested worker
// count appears, and out-of-range columns leave honest skip notes.
func TestScalingSweepSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling sweep in short mode")
	}
	res, err := ScalingSweep(ScalingConfig{
		Rows: 20000, Seed: 5,
		Workers:    []int{1, 2},
		Gomaxprocs: []int{1, 512}, // 512 must be skipped on any real machine
	})
	if err != nil {
		t.Fatalf("ScalingSweep: %v", err)
	}
	if !res.OneWorkerIdentical {
		t.Error("1-worker evaluation must be byte-identical to sequential")
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d, want 2 (workers 1 and 2 at GOMAXPROCS=1)", len(res.Points))
	}
	for i, want := range []int{1, 2} {
		p := res.Points[i]
		if p.Workers != want || p.Gomaxprocs != 1 {
			t.Errorf("point %d: workers=%d procs=%d, want workers=%d procs=1", i, p.Workers, p.Gomaxprocs, want)
		}
		if p.EvalRowsPerSec <= 0 {
			t.Errorf("point %d: non-positive throughput: %+v", i, p)
		}
	}
	if res.Points[0].EvalSpeedup != 1 || res.Points[0].EvalEfficiency != 1 {
		t.Errorf("1-worker point should be its own baseline: %+v", res.Points[0])
	}
	if !strings.Contains(strings.Join(res.SkipNotes, "\n"), "GOMAXPROCS=512") {
		t.Errorf("oversized GOMAXPROCS column should leave a skip note, got %v", res.SkipNotes)
	}

	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var back ScalingResult
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if len(back.Points) != len(res.Points) || !back.OneWorkerIdentical {
		t.Error("JSON round-trip lost data")
	}
	buf.Reset()
	PrintScalingSweep(&buf, res)
	if !strings.Contains(buf.String(), "Multicore scaling") {
		t.Error("printout malformed")
	}
}
