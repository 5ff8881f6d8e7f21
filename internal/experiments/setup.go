// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5 and Appendix B) against the synthetic datasets.
// cmd/benchrunner prints them; the repository-root benchmarks wrap them in
// testing.B harnesses. EXPERIMENTS.md records paper-versus-measured for
// each experiment.
package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/olap"
	"repro/internal/speech"
	"repro/internal/voice"
)

// Setup holds the shared datasets and configuration of an experiment run.
type Setup struct {
	// Flights is the large dataset (Table 11: 5.3 M rows in the paper;
	// configurable here).
	Flights *olap.Dataset
	// Salaries is the small dataset (320 rows).
	Salaries *olap.Dataset
	// Seed drives all randomized components.
	Seed int64
}

// DefaultBenchFlightRows keeps experiment runtimes moderate; pass
// datagen.PaperFlightRows to reproduce at full paper scale.
const DefaultBenchFlightRows = 200000

// NewSetup generates both datasets. flightRows <= 0 selects
// DefaultBenchFlightRows.
func NewSetup(flightRows int, seed int64) (*Setup, error) {
	if flightRows <= 0 {
		flightRows = DefaultBenchFlightRows
	}
	flights, err := datagen.Flights(datagen.FlightsConfig{Rows: flightRows, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	salaries, err := datagen.Salaries(datagen.SalariesConfig{Seed: seed + 1})
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return &Setup{Flights: flights, Salaries: salaries, Seed: seed}, nil
}

// FlightsQuery builds a flight query from a Figure 3 style spec: filter
// ("" , "N" for the North East, "W" for Winter) and breakdown dimensions
// ("R" region, "D" date/season, "A" airline).
func (s *Setup) FlightsQuery(filter, dims string) (olap.Query, error) {
	airport := s.Flights.HierarchyByName("start airport")
	date := s.Flights.HierarchyByName("flight date")
	airline := s.Flights.HierarchyByName("airline")
	q := olap.Query{
		Fct: olap.Avg, Col: "cancelled",
		ColDescription: "average cancellation probability",
	}
	switch filter {
	case "", "-":
	case "N":
		q.Filters = append(q.Filters, airport.FindMember("the North East"))
	case "W":
		q.Filters = append(q.Filters, date.FindMember("Winter"))
	default:
		return q, fmt.Errorf("experiments: unknown filter %q", filter)
	}
	for _, c := range dims {
		switch c {
		case 'R':
			level := 1
			if filter == "N" {
				level = 2 // inside a region, break down by state
			}
			q.GroupBy = append(q.GroupBy, olap.GroupBy{Hierarchy: airport, Level: level})
		case 'D':
			level := 1
			if filter == "W" {
				level = 2 // inside a season, break down by month
			}
			q.GroupBy = append(q.GroupBy, olap.GroupBy{Hierarchy: date, Level: level})
		case 'A':
			q.GroupBy = append(q.GroupBy, olap.GroupBy{Hierarchy: airline, Level: 1})
		default:
			return q, fmt.Errorf("experiments: unknown dimension %q", string(c))
		}
	}
	if err := q.Validate(); err != nil {
		return q, err
	}
	return q, nil
}

// substrateConfig models the paper's execution substrate on a simulated
// clock: one planning round (a 64-row read plus tree samples) costs 1 ms
// and each search-tree node costs 10 µs to build — Java-plus-Postgres-era
// throughputs, documented in DESIGN.md. Under this cost model, playback of
// a sentence affords a few thousand planning rounds, while the unmerged
// baseline's 500 ms budget is largely consumed by the O(m^k) tree
// pre-processing it cannot overlap with anything.
func (s *Setup) substrateConfig(seed int64) core.Config {
	return core.Config{
		Format:       speech.PercentFormat,
		Seed:         seed,
		Clock:        voice.NewSimClock(),
		SimNodeCost:  10 * time.Microsecond,
		MaxTreeNodes: 100000,
	}
}

// realConfig runs on the real clock for honest wall-time latency (used by
// the optimal baseline, whose cost is actual computation).
func (s *Setup) realConfig(seed int64) core.Config {
	return core.Config{
		Format:       speech.PercentFormat,
		Seed:         seed,
		Clock:        voice.RealClock{},
		MaxTreeNodes: 100000,
	}
}

// simConfig runs on the simulated clock (used where wall-clock latency is
// irrelevant and determinism matters).
func (s *Setup) simConfig(seed int64) core.Config {
	return core.Config{
		Format:               speech.PercentFormat,
		Seed:                 seed,
		Clock:                voice.NewSimClock(),
		MaxRoundsPerSentence: 5000,
		SamplesPerRound:      8,
		MaxTreeNodes:         100000,
	}
}
