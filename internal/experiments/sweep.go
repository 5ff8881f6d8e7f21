package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	rtmetrics "runtime/metrics"
	"time"

	"repro/internal/datagen"
	"repro/internal/olap"
)

// mutexWaitMetric is the cumulative time goroutines have spent blocked on
// sync.Mutex/RWMutex: the direct contention evidence each sweep point
// records alongside its throughput.
const mutexWaitMetric = "/sync/mutex/wait/total:seconds"

// contentionProbe snapshots the runtime's lock-wait and GC counters so a
// measurement can report deltas over its own interval.
type contentionProbe struct {
	mutexWaitNs int64
	gcPauseNs   uint64
}

func probeContention() contentionProbe {
	sample := []rtmetrics.Sample{{Name: mutexWaitMetric}}
	rtmetrics.Read(sample)
	var p contentionProbe
	if sample[0].Value.Kind() == rtmetrics.KindFloat64 {
		p.mutexWaitNs = int64(sample[0].Value.Float64() * 1e9)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.gcPauseNs = ms.PauseTotalNs
	return p
}

// ScalingConfig parameterizes the multicore scaling sweep.
type ScalingConfig struct {
	// Rows is the flight dataset size (<= 0 selects DefaultBenchFlightRows).
	Rows int
	// Seed drives dataset generation.
	Seed int64
	// Workers and Gomaxprocs are the sweep axes (empty selects 1/2/4/8).
	// Points whose GOMAXPROCS exceeds the machine's CPU count are skipped
	// with a note rather than measured: throughput numbers taken on
	// oversubscribed virtual processors are scheduler noise, not results.
	Workers    []int
	Gomaxprocs []int
}

// SweepPoint is one (workers, GOMAXPROCS) cell of the scaling grid. All
// speedups are relative to the 1-worker cell at the same GOMAXPROCS, and
// efficiency divides the speedup by the worker count (1.0 = ideal linear
// scaling).
type SweepPoint struct {
	Workers    int `json:"workers"`
	Gomaxprocs int `json:"gomaxprocs"`

	// Exact evaluation (EvaluateSpaceWorkers) over the full table.
	EvalRowsPerSec float64 `json:"eval_rows_per_sec"`
	EvalSpeedup    float64 `json:"eval_speedup"`
	EvalEfficiency float64 `json:"eval_efficiency"`

	// Contention evidence over the whole point's measurement interval.
	MutexWaitNs int64 `json:"mutex_wait_ns"`
	GCPauseNs   int64 `json:"gc_pause_ns"`
}

// ScalingResult is the machine-readable record of the multicore scaling
// sweep. benchrunner -exp scaling writes it to BENCH_scaling.json.
type ScalingResult struct {
	Rows int `json:"rows"`
	// NumCPU and Gomaxprocs pin the machine the numbers were taken on:
	// cross-machine comparisons of scaling curves are meaningless without
	// them. Gomaxprocs is the process default outside the sweep.
	NumCPU     int    `json:"num_cpu"`
	Gomaxprocs int    `json:"gomaxprocs"`
	Query      string `json:"query"`

	// OneWorkerIdentical must be true: EvaluateSpaceWorkers at one worker
	// returns the sequential scan's result bit for bit, so the sweep's
	// baseline IS the sequential evaluator.
	OneWorkerIdentical bool `json:"one_worker_identical"`

	Points []SweepPoint `json:"points"`
	// SkipNotes lists the grid cells that were not measured and why —
	// single-CPU runners keep their honest "no speedup to report here"
	// record instead of fabricating one.
	SkipNotes []string `json:"skip_notes,omitempty"`
}

// sweepEnv bundles the fixtures every sweep point reuses.
type sweepEnv struct {
	flights *olap.Dataset
	space   *olap.Space
}

func newSweepEnv(cfg ScalingConfig) (*sweepEnv, error) {
	rows := cfg.Rows
	if rows <= 0 {
		rows = DefaultBenchFlightRows
	}
	flights, err := datagen.Flights(datagen.FlightsConfig{Rows: rows, Seed: cfg.Seed})
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	setup := &Setup{Flights: flights, Seed: cfg.Seed}
	q, err := setup.FlightsQuery("-", "RD")
	if err != nil {
		return nil, err
	}
	space, err := olap.NewSpace(flights, q)
	if err != nil {
		return nil, err
	}
	return &sweepEnv{flights: flights, space: space}, nil
}

// measureEval times EvaluateSpaceWorkers over the full table.
func (e *sweepEnv) measureEval(workers int) (time.Duration, error) {
	var err error
	d := timeBest(3, func() {
		if _, eerr := olap.EvaluateSpaceWorkers(e.space, workers); eerr != nil {
			err = eerr
		}
	})
	return d, err
}

// oneWorkerIdentical checks the sweep's exactness baseline: the 1-worker
// scan returns the sequential result bit for bit.
func (e *sweepEnv) oneWorkerIdentical() (bool, error) {
	seq, err := olap.EvaluateSpaceSequential(e.space)
	if err != nil {
		return false, err
	}
	par, err := olap.EvaluateSpaceWorkers(e.space, 1)
	if err != nil {
		return false, err
	}
	for a := 0; a < e.space.Size(); a++ {
		if seq.Count(a) != par.Count(a) || seq.Sum(a) != par.Sum(a) {
			return false, nil
		}
	}
	return true, nil
}

// ScalingSweep measures exact evaluation throughput over a workers x
// GOMAXPROCS grid. GOMAXPROCS is changed process-wide per column and
// restored afterwards, so nothing else should run concurrently with the
// sweep.
func ScalingSweep(cfg ScalingConfig) (*ScalingResult, error) {
	workersAxis := cfg.Workers
	if len(workersAxis) == 0 {
		workersAxis = []int{1, 2, 4, 8}
	}
	procsAxis := cfg.Gomaxprocs
	if len(procsAxis) == 0 {
		procsAxis = []int{1, 2, 4, 8}
	}
	env, err := newSweepEnv(cfg)
	if err != nil {
		return nil, err
	}
	res := &ScalingResult{
		Rows:       env.flights.Table().NumRows(),
		NumCPU:     runtime.NumCPU(),
		Gomaxprocs: runtime.GOMAXPROCS(0),
		Query:      "-,RD",
	}
	identical, err := env.oneWorkerIdentical()
	if err != nil {
		return nil, err
	}
	res.OneWorkerIdentical = identical
	if runtime.NumCPU() < 2 {
		res.SkipNotes = append(res.SkipNotes,
			"single-CPU runner: points with workers > 1 measure oversubscription overhead on one core, not parallel speedup — expect <= 1x")
	}

	baseProcs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(baseProcs)
	for _, procs := range procsAxis {
		if procs > runtime.NumCPU() {
			res.SkipNotes = append(res.SkipNotes, fmt.Sprintf(
				"GOMAXPROCS=%d column skipped: machine has %d CPU(s); oversubscribed throughput is scheduler noise, not a result",
				procs, runtime.NumCPU()))
			continue
		}
		runtime.GOMAXPROCS(procs)
		// The per-column 1-worker baseline speedups are relative to.
		var evalBase time.Duration
		for _, workers := range workersAxis {
			probe := probeContention()
			evalNs, err := env.measureEval(workers)
			if err != nil {
				runtime.GOMAXPROCS(baseProcs)
				return nil, err
			}
			after := probeContention()
			if workers == 1 {
				evalBase = evalNs
			}
			p := SweepPoint{
				Workers:     workers,
				Gomaxprocs:  procs,
				MutexWaitNs: after.mutexWaitNs - probe.mutexWaitNs,
				GCPauseNs:   int64(after.gcPauseNs - probe.gcPauseNs),
			}
			if evalNs > 0 {
				p.EvalRowsPerSec = float64(res.Rows) / evalNs.Seconds()
			}
			if evalBase > 0 && evalNs > 0 {
				p.EvalSpeedup = float64(evalBase) / float64(evalNs)
				p.EvalEfficiency = p.EvalSpeedup / float64(workers)
			}
			res.Points = append(res.Points, p)
		}
	}
	runtime.GOMAXPROCS(baseProcs)
	if len(res.Points) == 0 {
		res.SkipNotes = append(res.SkipNotes,
			"no sweep points ran: every requested GOMAXPROCS exceeds the CPU count")
	}
	return res, nil
}

// WriteJSON writes the result as indented JSON.
func (r *ScalingResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// PrintScalingSweep prints the human-readable scaling table.
func PrintScalingSweep(w io.Writer, r *ScalingResult) {
	fmt.Fprintf(w, "Multicore scaling — %d rows (%d CPUs, base GOMAXPROCS %d), query %s\n",
		r.Rows, r.NumCPU, r.Gomaxprocs, r.Query)
	fmt.Fprintf(w, "  1-worker evaluation byte-identical to sequential: %v\n", r.OneWorkerIdentical)
	if len(r.Points) > 0 {
		fmt.Fprintf(w, "  %5s %5s %14s %8s %6s %12s\n",
			"procs", "wrk", "eval rows/s", "speedup", "eff", "mutex wait")
		for _, p := range r.Points {
			fmt.Fprintf(w, "  %5d %5d %14.0f %7.2fx %6.2f %12s\n",
				p.Gomaxprocs, p.Workers,
				p.EvalRowsPerSec, p.EvalSpeedup, p.EvalEfficiency,
				time.Duration(p.MutexWaitNs).Round(time.Microsecond))
		}
	}
	for _, note := range r.SkipNotes {
		fmt.Fprintf(w, "  note: %s\n", note)
	}
}
