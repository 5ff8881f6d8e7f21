package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/olap"
	"repro/internal/speech"
	"repro/internal/voice"
)

// DataScalingRow measures both approaches' real latency at one dataset size.
type DataScalingRow struct {
	Rows             int
	OptimalLatency   time.Duration
	HolisticLatency  time.Duration
	OptimalViolation bool // above the 500 ms interactivity threshold
	// OptimalRowsRead is the rows the optimal baseline's exact scan read:
	// the work that grows with the table, where its latency is that work
	// plus a plan-space search of constant size and run-to-run noise.
	OptimalRowsRead int64
}

// DataScaling measures how time-to-first-output grows with data volume — the
// paper's motivating claim: exact evaluation before speaking cannot stay
// interactive as data grows, while the holistic pipeline's latency is
// independent of table size. Both run with honest wall-clock timing (no
// substrate simulation); the holistic run is capped after a few planning
// rounds since only its latency matters here.
//
// An honest reproduction note: Go's in-memory scan is fast enough that the
// coarse query stays interactive even at the paper's 5.3 M rows — the scan
// term grows linearly, but from a low base. What breaks the 500 ms budget
// in this reproduction is the plan-space term on 3-dimensional queries
// (Figure 3's N,DA and W,RA rows); on the paper's Java/Postgres substrate
// the scan term alone sufficed.
func DataScaling(seed int64, sizes []int) ([]DataScalingRow, error) {
	if len(sizes) == 0 {
		sizes = []int{50000, 200000, 1000000, datagen.PaperFlightRows}
	}
	var out []DataScalingRow
	for _, rows := range sizes {
		d, err := datagen.Flights(datagen.FlightsConfig{Rows: rows, Seed: seed})
		if err != nil {
			return nil, err
		}
		// The region x season query: its plan space is constant, so the
		// optimal baseline's latency growth isolates the full-scan cost.
		q := olap.Query{
			Fct: olap.Avg, Col: "cancelled",
			ColDescription: "average cancellation probability",
			GroupBy: []olap.GroupBy{
				{Hierarchy: d.HierarchyByName("start airport"), Level: 1},
				{Hierarchy: d.HierarchyByName("flight date"), Level: 1},
			},
		}
		cfg := core.Config{
			Format:               speech.PercentFormat,
			Seed:                 seed,
			Clock:                voice.RealClock{},
			MaxRoundsPerSentence: 8,
			MinRounds:            4,
			MaxTreeNodes:         100000,
		}
		// Minimum over repetitions: scheduling and GC noise otherwise
		// swamps the scan term on small tables.
		const reps = 3
		var oLat, hLat time.Duration
		var oRows int64
		for i := 0; i < reps; i++ {
			oOut, err := core.NewOptimal(d, q, cfg).Vocalize()
			if err != nil {
				return nil, err
			}
			oRows = oOut.RowsRead
			hOut, err := core.NewHolistic(d, q, cfg).Vocalize()
			if err != nil {
				return nil, err
			}
			if i == 0 || oOut.Latency < oLat {
				oLat = oOut.Latency
			}
			if i == 0 || hOut.Latency < hLat {
				hLat = hOut.Latency
			}
		}
		out = append(out, DataScalingRow{
			Rows:             rows,
			OptimalLatency:   oLat,
			HolisticLatency:  hLat,
			OptimalViolation: oLat > core.InteractivityThreshold,
			OptimalRowsRead:  oRows,
		})
	}
	return out, nil
}

// PrintDataScaling writes the scaling table.
func PrintDataScaling(w io.Writer, rows []DataScalingRow) {
	fmt.Fprintln(w, "Scaling — time to first voice output vs data volume (region x season, real clock)")
	fmt.Fprintf(w, "%10s %16s %16s %12s %s\n", "rows", "optimal", "holistic", "optimal read", "optimal interactive?")
	for _, r := range rows {
		status := "yes"
		if r.OptimalViolation {
			status = "NO (above 500 ms)"
		}
		fmt.Fprintf(w, "%10d %16s %16s %12d %s\n",
			r.Rows,
			r.OptimalLatency.Round(time.Millisecond),
			r.HolisticLatency.Round(time.Microsecond),
			r.OptimalRowsRead,
			status)
	}
}
