package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/olap"
)

// Figure3Queries are the eight query specs of Figure 3: filter member(s)
// and breakdown dimensions (R region, D date, A airline; N = North East,
// W = Winter).
var Figure3Queries = []struct{ Filter, Dims string }{
	{"-", "R"},
	{"-", "D"},
	{"-", "A"},
	{"-", "RD"},
	{"N", "D"},
	{"W", "R"},
	{"N", "DA"},
	{"W", "RA"},
}

// Figure3Row is one measurement of Figure 3: an approach's latency and
// exact speech quality on one query. SpeechesScored is the candidate
// speeches Optimal scored exactly, the work behind its latency (0 for the
// sampled approaches).
type Figure3Row struct {
	Query          string
	Approach       string
	Latency        time.Duration
	Quality        float64
	RowsRead       int64
	SpeechLen      int
	SpeechesScored int64
}

// Figure3 runs optimal, holistic, and unmerged on the eight queries and
// reports latency plus exact quality — the two panels of Figure 3.
func Figure3(s *Setup) ([]Figure3Row, error) {
	var rows []Figure3Row
	for qi, spec := range Figure3Queries {
		q, err := s.FlightsQuery(spec.Filter, spec.Dims)
		if err != nil {
			return nil, err
		}
		name := spec.Filter + "," + spec.Dims
		// Optimal pays real computation; holistic and unmerged run on the
		// simulated substrate cost model (see substrateConfig), where the
		// unmerged baseline's budget is eaten by tree pre-processing it
		// cannot overlap with voice output.
		cfg := s.substrateConfig(s.Seed + int64(qi))
		vocalizers := []core.Vocalizer{
			core.NewOptimal(s.Flights, q, s.realConfig(s.Seed+int64(qi))),
			core.NewHolistic(s.Flights, q, cfg),
			core.NewUnmerged(s.Flights, q, cfg),
		}
		for _, v := range vocalizers {
			out, err := v.Vocalize()
			if err != nil {
				return nil, fmt.Errorf("experiments: %s on %s: %w", v.Name(), name, err)
			}
			quality, err := core.ExactQuality(s.Flights, q, out, cfg)
			if err != nil {
				return nil, fmt.Errorf("experiments: quality of %s on %s: %w", v.Name(), name, err)
			}
			rows = append(rows, Figure3Row{
				Query:          name,
				Approach:       v.Name(),
				Latency:        out.Latency,
				Quality:        quality,
				RowsRead:       out.RowsRead,
				SpeechLen:      len(out.Speech.MainText()),
				SpeechesScored: out.SpeechesScored,
			})
		}
	}
	return rows, nil
}

// Figure3Summary aggregates per-approach means for quick assertions.
type Figure3Summary struct {
	MeanLatency map[string]time.Duration
	MeanQuality map[string]float64
}

// Summarize computes the per-approach aggregate view of Figure 3 rows.
func Summarize(rows []Figure3Row) Figure3Summary {
	sumLat := map[string]time.Duration{}
	sumQ := map[string]float64{}
	count := map[string]int{}
	for _, r := range rows {
		sumLat[r.Approach] += r.Latency
		sumQ[r.Approach] += r.Quality
		count[r.Approach]++
	}
	out := Figure3Summary{
		MeanLatency: map[string]time.Duration{},
		MeanQuality: map[string]float64{},
	}
	for a, n := range count {
		out.MeanLatency[a] = sumLat[a] / time.Duration(n)
		out.MeanQuality[a] = sumQ[a] / float64(n)
	}
	return out
}

// evaluateExact is a small helper shared by table experiments.
func evaluateExact(d *olap.Dataset, q olap.Query) (*olap.Result, error) {
	r, err := olap.Evaluate(d, q)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return r, nil
}
