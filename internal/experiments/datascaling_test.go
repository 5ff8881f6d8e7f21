package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestDataScalingShape(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling in short mode")
	}
	rows, err := DataScaling(1, []int{20000, 4000000})
	if err != nil {
		t.Fatalf("DataScaling: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Optimal latency grows with the table; holistic stays immediate. The
	// plan-space search costs ~45 ms at either size, so the scan term has to
	// clear that term's run-to-run noise (a few ms on a shared 2-vCPU VM):
	// a 200x size gap makes it ~10 ms, where a 50x gap left ~2 ms.
	if rows[1].OptimalLatency <= rows[0].OptimalLatency {
		t.Errorf("optimal latency should grow: %v then %v",
			rows[0].OptimalLatency, rows[1].OptimalLatency)
	}
	for _, r := range rows {
		if r.HolisticLatency >= r.OptimalLatency {
			t.Errorf("%d rows: holistic %v should beat optimal %v",
				r.Rows, r.HolisticLatency, r.OptimalLatency)
		}
	}
	var buf bytes.Buffer
	PrintDataScaling(&buf, rows)
	if !strings.Contains(buf.String(), "Scaling") {
		t.Error("printout malformed")
	}
}
