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
	// Optimal's work grows with the table, holistic stays immediate. The
	// work is asserted, not the time: the plan-space search costs ~45 ms at
	// either size, and the scan term's ~10 ms at a 200x size gap lost to
	// that term's run-to-run noise on a shared 2-vCPU VM in 3 runs of 15.
	for _, r := range rows {
		if r.OptimalRowsRead != int64(r.Rows) {
			t.Errorf("%d rows: the optimal scan read %d", r.Rows, r.OptimalRowsRead)
		}
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
