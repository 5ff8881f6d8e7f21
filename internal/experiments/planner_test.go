package experiments

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"repro/internal/belief"
	"repro/internal/datagen"
	"repro/internal/olap"
	"repro/internal/speech"
)

// TestLegacyQualityMatchesModel pins the benchmark's legacy replica (the
// pre-bitset, pre-scorer quality loop) to today's Model.Quality: the
// optimizations changed evaluation cost, never the math, so the two must
// agree exactly on every enumerated speech. A drifting replica would make
// the reported QualitySpeedup meaningless.
func TestLegacyQualityMatchesModel(t *testing.T) {
	flights, err := datagen.Flights(datagen.FlightsConfig{Rows: 8000, Seed: 11})
	if err != nil {
		t.Fatalf("datagen: %v", err)
	}
	setup := &Setup{Flights: flights, Seed: 11}
	q, err := setup.FlightsQuery("-", "RD")
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	space, err := olap.NewSpace(flights, q)
	if err != nil {
		t.Fatalf("NewSpace: %v", err)
	}
	result, err := olap.EvaluateSpace(space)
	if err != nil {
		t.Fatalf("EvaluateSpace: %v", err)
	}
	scale := result.GrandValue()
	sigma := belief.SigmaFromScale(scale)
	model, err := belief.NewModel(space, sigma)
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	legacy := newLegacyQuality(space, sigma)
	prefs := speech.DefaultPrefs()
	gen := speech.NewGenerator(space, prefs, speech.PercentFormat)
	preamble := gen.NewPreamble()

	checked := 0
	exhaustiveSearch(gen, prefs, preamble, scale, 0, searchHooks{
		score: func(sp *speech.Speech) float64 {
			want := model.Quality(sp, result)
			got := legacy.quality(sp, result)
			if got != want {
				t.Fatalf("legacy quality %v, model %v for %q", got, want, sp.MainText())
			}
			checked++
			return want
		},
	})
	if checked < 50 {
		t.Fatalf("only %d speeches checked; enumeration too small", checked)
	}
}

// TestPlannerSmoke runs the full planner benchmark at toy scale and checks
// the result's internal consistency.
func TestPlannerSmoke(t *testing.T) {
	r, err := Planner(PlannerConfig{Rows: 8000, Seed: 12, Rounds: 300, MaxWorkers: 2, Dims: "RD"})
	if err != nil {
		t.Fatalf("Planner: %v", err)
	}
	if !r.IdenticalChoice {
		t.Error("the three searches should choose the identical speech")
	}
	if r.SpeechesScored < 50 {
		t.Errorf("scored only %d speeches", r.SpeechesScored)
	}
	if r.QualitySpeedup <= 1 {
		t.Errorf("incremental scorer should beat the legacy loop, got %.2fx", r.QualitySpeedup)
	}
	if r.SequentialRoundsPerSec <= 0 {
		t.Error("sequential sampling throughput missing")
	}
	if runtime.NumCPU() < 2 {
		// Single-CPU runners skip the sweep and must say so.
		if len(r.Parallel) != 0 || r.ParallelNote == "" {
			t.Fatalf("single-CPU run should skip the sweep with a note, got %+v / %q", r.Parallel, r.ParallelNote)
		}
	} else {
		if len(r.Parallel) != 1 || r.Parallel[0].Workers != 2 {
			t.Fatalf("expected one parallel sample at 2 workers, got %+v", r.Parallel)
		}
		if r.Parallel[0].RoundsPerSec <= 0 {
			t.Error("parallel sampling throughput missing")
		}
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
	if !strings.Contains(buf.String(), "\"quality_speedup\"") {
		t.Error("JSON missing quality_speedup field")
	}
}
