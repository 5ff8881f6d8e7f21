// Command benchmark is the repository's one benchmark: it generates the
// paper-scale flights table, boots the web server in-process exactly as
// cmd/voiceolapd configures it, drives four named workloads over real HTTP
// from closed-loop clients, checks every reply against a mirrored session
// and the exact-quality oracle, and prints named end-to-end metrics; with
// -trace 1 it prints per-layer metrics instead. See README.md.
//
// Usage (from this directory, or `go run -C benchmark . ...` from the
// repository root):
//
//	go run . [-workload all|NAME] [-seed N] [-seconds S] [-trace 0|1]
//	         [-rows N] [-out FILE] [-trace-out FILE]
//	go run . -agree A.json B.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/datagen"
)

// options are the run parameters shared by every workload of one
// invocation.
type options struct {
	seed     int64
	seconds  float64
	trace    bool
	rows     int
	traceOut string
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run is the record of one workload run, as printed and as written to
// the -out file.
type run struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Trace     int              `json:"trace"`
	Seconds   float64          `json:"seconds"`
	Rows      int              `json:"rows"`
	Sessions  int              `json:"sessions"`
	ListHash  string           `json:"list_hash"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Correct   bool             `json:"correct"`
	Answers   int              `json:"answers"`
	Failures  []string         `json:"failures,omitempty"`
	Notes     []string         `json:"notes,omitempty"`
	NumCPU    int              `json:"num_cpu"`
	Gomaxproc int              `json:"gomaxprocs"`
	GoVersion string           `json:"go_version"`
	GitSHA    string           `json:"git_sha"`
	Metrics   map[string]value `json:"metrics"`
}

// set records a metric; every name must be in the catalog and is reported
// once per run.
func (r *run) set(name string, v float64) {
	def, ok := catalog[name]
	if !ok {
		panic("benchmark: metric " + name + " is not in the catalog")
	}
	if _, dup := r.Metrics[name]; dup {
		panic("benchmark: metric " + name + " reported twice")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.Correct = false
		r.Failures = append(r.Failures, fmt.Sprintf("metric %s is not finite", name))
		v = 0
	}
	r.Metrics[name] = value{Value: v, Unit: def.unit}
}

func (r *run) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// gitSHA returns the revision the binary was built from, when the build
// recorded one.
func gitSHA() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func main() {
	if err := realMain(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func realMain() error {
	workloadName := flag.String("workload", "all", "workload to run: all, or one of "+fmt.Sprint(workloadNames()))
	seed := flag.Int64("seed", 1, "seed of the generated request lists (order, phrasing, session boundaries); the dataset seed is fixed")
	seconds := flag.Float64("seconds", 22, "length of the measured phase of each workload at the baseline's speed: it sets the number of sessions sent")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics (counters, traced replay, layer probes) instead of the end-to-end ones")
	rows := flag.Int("rows", datagen.PaperFlightRows, "rows of the generated flights table")
	out := flag.String("out", "", "append the runs to this JSON result file (read by -agree)")
	traceOut := flag.String("trace-out", "", "with -trace 1, write the replay's spans to this JSON file")
	agree := flag.Bool("agree", false, "compare two result files metric by metric against the bounds in BENCHMARK.json: -agree A.json B.json")
	flag.Parse()

	if *agree {
		if flag.NArg() != 2 {
			return errors.New("-agree needs two result files")
		}
		return runAgree(flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if *seconds <= 0 || *rows <= 0 || *trace < 0 || *trace > 1 {
		return errors.New("-seconds and -rows must be positive and -trace 0 or 1")
	}
	var todo []workload
	if *workloadName == "all" {
		todo = workloads
	} else if w, ok := workloadByName(*workloadName); ok {
		todo = []workload{w}
	} else {
		return fmt.Errorf("unknown workload %q, want all or one of %v", *workloadName, workloadNames())
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, rows: *rows, traceOut: *traceOut}

	var runs []*run
	for _, w := range todo {
		r, err := runWorkload(w, o)
		if err != nil {
			return fmt.Errorf("workload %s: %w", w.name, err)
		}
		printRun(r)
		runs = append(runs, r)
	}
	if *out != "" {
		if err := appendRuns(*out, runs); err != nil {
			return err
		}
	}
	return printSummary(runs, o.trace)
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// newRun starts the record of one workload run.
func newRun(w workload, o options) *run {
	trace := 0
	if o.trace {
		trace = 1
	}
	return &run{
		Workload: w.name, Seed: o.seed, Trace: trace, Seconds: o.seconds, Rows: o.rows,
		Correct: true, NumCPU: runtime.NumCPU(), Gomaxproc: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GitSHA: gitSHA(), Metrics: map[string]value{},
	}
}

// printRun prints one `workload metric value unit` line per metric.
func printRun(r *run) {
	fmt.Printf("# %s seed=%d rows=%d sessions=%d request-list=%s attempted=%d failed=%d answers=%d\n",
		r.Workload, r.Seed, r.Rows, r.Sessions, r.ListHash, r.Attempted, r.Failed, r.Answers)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if a, b := catalog[names[i]].endToEnd, catalog[names[j]].endToEnd; a != b {
			return a
		}
		return names[i] < names[j]
	})
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Printf("%s %s %.6g %s\n", r.Workload, name, m.Value, m.Unit)
	}
	for _, f := range r.Failures {
		fmt.Printf("# %s FAILED: %s\n", r.Workload, f)
	}
	for _, n := range r.Notes {
		fmt.Printf("# %s note: %s\n", r.Workload, n)
	}
}

// printSummary prints the last line: one JSON object with the verdict and
// the end-to-end metrics (or, traced, the per-layer ones). With several
// workloads the metric names carry the workload as a prefix.
func printSummary(runs []*run, trace bool) error {
	sum := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, r := range runs {
		sum.Correct = sum.Correct && r.Correct
		sum.Attempted += r.Attempted
		sum.Failed += r.Failed
		for name, def := range catalog {
			if def.endToEnd == trace {
				continue
			}
			m, ok := r.Metrics[name]
			if !ok {
				return fmt.Errorf("workload %s did not report %s", r.Workload, name)
			}
			if len(runs) > 1 {
				name = r.Workload + "/" + name
			}
			sum.Metrics[name] = m
		}
	}
	line, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// resultFile is the -out format: the runs of one or more invocations.
type resultFile struct {
	Runs []*run `json:"runs"`
}

func readResults(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// appendRuns adds runs to the result file at path, creating it if needed,
// so repeated invocations collect into one set.
func appendRuns(path string, runs []*run) error {
	f, err := readResults(path)
	if errors.Is(err, os.ErrNotExist) {
		f = &resultFile{}
	} else if err != nil {
		return err
	}
	f.Runs = append(f.Runs, runs...)
	raw, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// median returns the median of xs (0 for none); it sorts xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
