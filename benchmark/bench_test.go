package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/encode"
	"repro/internal/speech"
	"repro/internal/voice"
)

// testRows keeps the generated table small: the request lists, the checks
// and the metric plumbing do not depend on the row count.
const testRows = 20000

// TestSpecMatchesCatalog pins BENCHMARK.json to the program: the same
// workloads with the same reasons, the same metric names, units and
// end-to-end/per-layer split, and the limits of the benchmark contract.
func TestSpecMatchesCatalog(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: name or why outside the contract's limits", w.Name)
		}
	}
	seen := map[string]bool{}
	check := func(ms []specMetric, endToEnd bool) {
		for _, m := range ms {
			def, ok := catalog[m.Name]
			switch {
			case !ok:
				t.Errorf("BENCHMARK.json metric %q is not in the catalog", m.Name)
			case seen[m.Name]:
				t.Errorf("BENCHMARK.json names %q twice", m.Name)
			case def.unit != m.Unit || def.endToEnd != endToEnd:
				t.Errorf("metric %q: BENCHMARK.json has unit %q end-to-end %v, the catalog %q %v", m.Name, m.Unit, endToEnd, def.unit, def.endToEnd)
			case !name.MatchString(m.Name) || !unit.MatchString(m.Unit):
				t.Errorf("metric %q (%q): name or unit outside the contract's alphabet", m.Name, m.Unit)
			case m.Better != "lower" && m.Better != "higher":
				t.Errorf("metric %q: better is %q", m.Name, m.Better)
			case endToEnd && (m.Bound <= 0 || m.Bound > 0.25):
				t.Errorf("metric %q: bound %v outside (0, 0.25]", m.Name, m.Bound)
			}
			seen[m.Name] = true
		}
	}
	check(spec.EndToEnd, true)
	check(spec.PerLayer, false)
	for name := range catalog {
		if !seen[name] {
			t.Errorf("catalog metric %q is missing from BENCHMARK.json", name)
		}
	}
	if len(spec.PerLayer) > 128 || len(spec.EndToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the contract's 16 and 128", len(spec.EndToEnd), len(spec.PerLayer))
	}
	if def, ok := catalog["setup_s"]; !ok || !def.endToEnd || def.unit != "s" {
		t.Error("setup_s must be an end-to-end metric in seconds")
	}
}

// TestRequestLists checks what the seed may and may not change: the same
// seed gives the same list, another seed another list, every answer's
// result space is inside the workload's stated range, and every seed
// sends the same multiset of queries.
func TestRequestLists(t *testing.T) {
	d, err := datagen.Flights(datagen.FlightsConfig{Rows: 1000, Seed: datasetSeed})
	if err != nil {
		t.Fatal(err)
	}
	queries := func(sessions []session) []string {
		var keys []string
		for _, sess := range sessions {
			for _, r := range sess {
				keys = append(keys, r.Key)
			}
		}
		sort.Strings(keys)
		return keys
	}
	for _, w := range workloads {
		n := w.sessionCount(20)
		a, err := generate(w, d, 1, n)
		if err != nil {
			t.Fatal(err)
		}
		again, err := generate(w, d, 1, n)
		if err != nil {
			t.Fatal(err)
		}
		other, err := generate(w, d, 2, n)
		if err != nil {
			t.Fatal(err)
		}
		if listHash(a) != listHash(again) {
			t.Errorf("%s: the same seed gave two request lists", w.name)
		}
		if listHash(a) == listHash(other) {
			t.Errorf("%s: seeds 1 and 2 gave the same request list", w.name)
		}
		answers := 0
		for _, sess := range a {
			for _, r := range sess {
				if !r.Answer {
					continue
				}
				answers++
				if w.maxSize > 0 && r.Size > w.maxSize || r.Size < w.minSize || r.Size == 0 {
					t.Errorf("%s: %q has %d aggregates, outside [%d, %d]", w.name, r.Input, r.Size, w.minSize, w.maxSize)
				}
			}
		}
		if answers < ingestEvery {
			t.Errorf("%s: %d answers in %d sessions never reach an ingest batch", w.name, answers, len(a))
		}
		qa, qo := queries(a), queries(other)
		if len(qa) != len(qo) {
			t.Fatalf("%s: seeds 1 and 2 send %d and %d requests", w.name, len(qa), len(qo))
		}
		for i := range qa {
			if qa[i] != qo[i] {
				t.Fatalf("%s: seeds 1 and 2 send different queries", w.name)
			}
		}
	}
	if w, _ := workloadByName("explore_coarse"); w.maxSize != 20 {
		t.Errorf("explore_coarse allows %d aggregates, want at most 20", w.maxSize)
	}
	if w, _ := workloadByName("explore_fine"); w.minSize != 50 {
		t.Errorf("explore_fine allows %d aggregates, want at least 50", w.minSize)
	}
}

// TestWorkloadsEmitEveryMetric runs all four workloads, untraced and
// traced, on a small table. Every reply is checked against the mirrored
// session (action and session summary, so mirror and server agree on the
// state and with it on the canonical query every answer is scored
// against), so failed == 0 pins the oracle wiring; every metric of the
// mode must be there once, finite, and the traced replay must cover
// internal/core's work.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, trace := range []bool{false, true} {
		o := options{seed: 1, seconds: 0.5, trace: trace, rows: testRows}
		if trace {
			o.traceOut = filepath.Join(t.TempDir(), "spans.json")
		}
		var runs []*run
		for _, w := range workloads {
			r, err := runWorkload(w, o)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.name, trace, err)
			}
			if !r.Correct || r.Failed != 0 || r.Metrics["fail_share"].Value != 0 {
				t.Errorf("%s (trace %v): correct %v, %d of %d failed: %v", w.name, trace, r.Correct, r.Failed, r.Attempted, r.Failures)
			}
			for name, def := range catalog {
				m, ok := r.Metrics[name]
				if def.endToEnd == trace {
					continue // an untraced run owes the end-to-end metrics, a traced run the rest
				}
				if !ok {
					t.Errorf("%s (trace %v): metric %s missing", w.name, trace, name)
				} else if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != def.unit {
					t.Errorf("%s: metric %s = %v %s", w.name, name, m.Value, m.Unit)
				}
			}
			if !trace {
				for _, name := range []string{"setup_s", "quality", "alloc_mb_per_answer"} {
					if r.Metrics[name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, r.Metrics[name].Value)
					}
				}
			}
			if w.ingest && r.Metrics["ingest_p50_ms"].Value <= 0 {
				t.Errorf("%s: no ingest batch was measured", w.name)
			}
			if w.allHits && r.Metrics["semcache.hit_ratio"].Value < 0.99 {
				t.Errorf("%s: hit ratio %v", w.name, r.Metrics["semcache.hit_ratio"].Value)
			}
			if trace {
				if c := r.Metrics["core.trace_coverage"].Value; c <= 0 {
					t.Errorf("%s: trace coverage %v", w.name, c)
				}
				for _, n := range r.Notes {
					t.Logf("%s: %s", w.name, n)
				}
				raw, err := os.ReadFile(o.traceOut)
				if err != nil {
					t.Fatal(err)
				}
				var file struct{ Spans []span }
				if err := json.Unmarshal(raw, &file); err != nil || len(file.Spans) == 0 {
					t.Errorf("%s: span file: %d spans, %v", w.name, len(file.Spans), err)
				}
				for _, s := range file.Spans {
					if s.Parent >= s.ID || s.EndNS < s.StartNS || s.BusyNS > s.EndNS-s.StartNS {
						t.Errorf("%s: malformed span %+v", w.name, s)
						break
					}
				}
			}
			runs = append(runs, r)
		}
		if err := printSummary(runs, trace); err != nil {
			t.Errorf("summary (trace %v): %v", trace, err)
		}
	}
}

// TestReplayFollowsCore pins the white-box replay to internal/core: with
// the same seed it must commit the same sentences as the black box.
func TestReplayFollowsCore(t *testing.T) {
	d, err := datagen.Flights(datagen.FlightsConfig{Rows: testRows, Seed: datasetSeed})
	if err != nil {
		t.Fatal(err)
	}
	w, _ := workloadByName("explore_coarse")
	sessions, err := generate(w, d, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg, _ := daemonConfig(true)
	cfg.Format = speech.PercentFormat
	rp := &replayer{tr: &tracer{t0: time.Now()}, d: d, cfg: cfg}
	for _, r := range sessions[0] {
		shape, err := rp.blackBoxRun(r.Query)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := rp.vocalize(-1, 0, r.Query, shape)
		if err != nil {
			t.Fatal(err)
		}
		if sp.Text() != shape.text {
			t.Errorf("%q: replay says %q, core says %q", r.Input, sp.Text(), shape.text)
		}
	}
}

// TestOracleMatchesExactQuality pins the oracle, which evaluates a query
// once for all its speeches, to core.ExactQuality, which is the metric's
// definition, through the wire form of the speech.
func TestOracleMatchesExactQuality(t *testing.T) {
	d, err := datagen.Flights(datagen.FlightsConfig{Rows: testRows, Seed: datasetSeed})
	if err != nil {
		t.Fatal(err)
	}
	w, _ := workloadByName("explore_coarse")
	sessions, err := generate(w, d, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg, _ := daemonConfig(true)
	cfg.Format = speech.PercentFormat
	orc := newOracle(d)
	for _, r := range sessions[1] {
		cfg.Clock = voice.NewSimClock()
		out, err := core.NewHolistic(d, r.Query, cfg).VocalizeContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.ExactQuality(d, r.Query, out, cfg)
		if err != nil {
			t.Fatal(err)
		}
		structured, err := json.Marshal(encode.EncodeSpeech(out.Speech))
		if err != nil {
			t.Fatal(err)
		}
		got, err := orc.quality(&heard{req: r, structured: string(structured)})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%q: oracle quality %v, core.ExactQuality %v", r.Input, got, want)
		}
	}
}

// TestAgree checks the verdicts of -agree on result files it writes.
func TestAgree(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	// write makes a result file whose metrics (all, or the one named) are
	// worse than the base by the factor scale.
	write := func(name string, scale float64, only string) string {
		var f resultFile
		for _, w := range workloads {
			for i := 0; i < 5; i++ {
				r := &run{Workload: w.name, Metrics: map[string]value{}}
				for _, m := range slices.Concat(spec.EndToEnd, spec.PerLayer) {
					v := 100 + float64(i)
					switch {
					case only != "" && m.Name != only:
					case m.Better == "higher":
						v /= scale
					default:
						v *= scale
					}
					r.Metrics[m.Name] = value{Value: v, Unit: m.Unit}
				}
				f.Runs = append(f.Runs, r)
			}
		}
		path := filepath.Join(t.TempDir(), name)
		if err := appendRuns(path, f.Runs); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, slower, faster := write("a.json", 1, ""), write("b.json", 1.01, ""), write("c.json", 1.5, ""), write("d.json", 0.5, "")
	if err := runAgree(base, same); err != nil {
		t.Errorf("1%% apart: %v", err)
	}
	if err := runAgree(base, faster); err != nil {
		t.Errorf("twice as fast: %v", err)
	}
	if err := runAgree(base, slower); err == nil {
		t.Error("50% slower was not reported as outside")
	}
	// A speed metric is not gated but still judged, by its advisory bound.
	if err := runAgree(base, write("e.json", 1.5, "answer_p50_ms")); err == nil {
		t.Error("answer_p50_ms 50% slower was not reported as outside")
	}
	if err := runAgree(base, write("f.json", 1.5, "go.gc_pause_ms")); err != nil {
		t.Errorf("a metric without a bound was judged: %v", err)
	}
}

// TestQuartilesMatchPython pins the spread to the driver's definition.
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles = %v, %v, want 1, 4", q1, q3)
	}
}
