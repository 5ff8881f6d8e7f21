// Command loadgen is a chaos load harness for the voice-OLAP server: it
// drives many concurrent tenant-tagged query sessions against a live
// server — by default one it spins up in-process with storage-fault
// injection on the scan path — and reports speech-latency percentiles,
// shed rate, degraded ratio, and per-ladder-step service counts as
// BENCH_serving.json.
//
// Usage:
//
//	loadgen [-workload serving|stream]
//	        [-target http://host:port] [-sessions 64] [-queries 20]
//	        [-tenants 8] [-dataset flights] [-seed 1] [-out BENCH_serving.json]
//	        [-assert] [-max-shed-rate 0.9]
//	        [-batches 8] [-batch-rows 64] [-ingest-interval 25ms]
//
// The stream workload races a streaming ingest feed against concurrent
// query sessions (semantic cache on): an ingester ships -batches batches
// of -batch-rows generated rows to /api/ingest while -sessions sessions
// keep asking repeated and time-windowed questions. The client records the
// highest acknowledged ingest epoch before every query; the report
// (BENCH_stream.json) counts answers — cached or fresh — computed below
// that epoch (stale reads) plus ingest visibility, and with -assert it
// fails on any stale cache replay, any freshness violation, any
// grammar-invalid speech, or rows that never became visible.
//
// In-process server knobs (ignored with -target):
//
//	[-flight-rows 5000] [-max-concurrent 8] [-queue-depth 32]
//	[-tenant-rate 0] [-request-timeout 2s]
//	[-brownout-target 0] [-breaker-threshold 3] [-breaker-cooldown 2s]
//	[-fault-slow-every 3] [-fault-slow-delay 200us]
//	[-fault-stall-every 17] [-fault-stall-release 300ms]
//	[-fault-fail-every 5]
//
// With -assert the run fails (exit 1) on any unexplained 5xx (503 sheds
// are intentional and excluded), on any grammar-invalid speech, or on a
// shed rate above -max-shed-rate — the chaos invariants: overload must
// surface as clean refusals and degraded-but-valid answers, never as
// internal errors or broken speech.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/faults"
	"repro/internal/speech"
	"repro/internal/voice"
	"repro/internal/web"
)

// script is the deterministic command cycle every session walks through,
// offset by its worker index: breakdowns and drills that vocalize, plus
// navigation commands that exercise the non-query path.
var script = []string{
	"break down by season",
	"drill down",
	"how does cancellation depend on region and season",
	"back",
	"break down by airline",
	"clear",
}

// sample is one request's outcome.
type sample struct {
	code      int
	wall      time.Duration
	hasSpeech bool
	servedBy  string
	origin    string
	cache     string
	degraded  bool
	fallback  string
	grammarOK bool
	speech    string
	dataEpoch int64
	stale     bool
	// wantEpoch is the highest ingest epoch the client had seen
	// acknowledged when it sent the request (stream workload only): any
	// answer computed below it proves a stale read.
	wantEpoch int64
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "serving", "workload: serving (chaos resilience) or stream (ingest racing queries)")
	target := flag.String("target", "", "URL of a running voiceolapd (empty: spin up an in-process server)")
	sessions := flag.Int("sessions", 64, "concurrent query sessions")
	queries := flag.Int("queries", 20, "queries per session")
	tenants := flag.Int("tenants", 8, "distinct tenants the sessions are spread over (X-Tenant header)")
	dataset := flag.String("dataset", "flights", "dataset to query")
	seed := flag.Int64("seed", 1, "random seed for the in-process server's data")
	clientTimeout := flag.Duration("client-timeout", 15*time.Second, "per-request client timeout")
	outPath := flag.String("out", "", "benchmark output path (default BENCH_<workload>.json)")
	assert := flag.Bool("assert", false, "exit nonzero when a workload invariant is violated")
	maxShedRate := flag.Float64("max-shed-rate", 0.9, "serving assert: maximum tolerated shed rate")
	batches := flag.Int("batches", 8, "stream: ingest batches to ship")
	batchRows := flag.Int("batch-rows", 64, "stream: rows per ingest batch")
	ingestInterval := flag.Duration("ingest-interval", 25*time.Millisecond, "stream: pause between ingest batches")

	flightRows := flag.Int("flight-rows", 5000, "in-process: flight dataset rows")
	maxConcurrent := flag.Int("max-concurrent", 8, "in-process: vocalization slots")
	queueDepth := flag.Int("queue-depth", 32, "in-process: admission queue depth")
	tenantRate := flag.Float64("tenant-rate", 0, "in-process: per-tenant queries per second (0 disables)")
	requestTimeout := flag.Duration("request-timeout", 2*time.Second, "in-process: per-request deadline")
	brownoutTarget := flag.Duration("brownout-target", 0, "in-process: p99 latency goal for the brownout ladder (0 disables)")
	breakerThreshold := flag.Int("breaker-threshold", 3, "in-process: consecutive blowouts tripping a dataset breaker (0 disables)")
	breakerCooldown := flag.Duration("breaker-cooldown", 2*time.Second, "in-process: open-breaker cooldown")
	faultSlowEvery := flag.Int("fault-slow-every", 3, "in-process chaos: slow every Nth scan (0 disables)")
	faultSlowDelay := flag.Duration("fault-slow-delay", 200*time.Microsecond, "in-process chaos: per-row delay for slow scans")
	faultStallEvery := flag.Int("fault-stall-every", 17, "in-process chaos: stall every Nth scan (0 disables)")
	faultStallRelease := flag.Duration("fault-stall-release", 300*time.Millisecond, "in-process chaos: stall auto-release delay")
	faultFailEvery := flag.Int("fault-fail-every", 5, "in-process chaos: truncate every Nth scan (0 disables)")
	flag.Parse()

	if *outPath == "" {
		*outPath = "BENCH_" + *workload + ".json"
	}
	switch *workload {
	case "serving":
	case "stream":
		return runStream(streamParams{
			target: *target, dataset: *dataset, seed: *seed,
			sessions: *sessions, queries: *queries,
			batches: *batches, batchRows: *batchRows, ingestInterval: *ingestInterval,
			flightRows: *flightRows, maxConcurrent: *maxConcurrent,
			requestTimeout: *requestTimeout, clientTimeout: *clientTimeout,
			outPath: *outPath, assert: *assert,
		})
	default:
		return fmt.Errorf("unknown -workload %q (want serving or stream)", *workload)
	}

	base := *target
	var injector *faults.Injector
	if base == "" {
		injectorOpts := faults.InjectorOptions{
			SlowEvery:    *faultSlowEvery,
			SlowDelay:    *faultSlowDelay,
			StallEvery:   *faultStallEvery,
			StallRelease: *faultStallRelease,
			FailEvery:    *faultFailEvery,
		}
		if injectorOpts.Enabled() {
			injector = faults.NewInjector(injectorOpts)
		}
		srv, ln, err := startServer(serverConfig{
			seed: *seed, flightRows: *flightRows, injector: injector,
			opts: web.Options{
				RequestTimeout:   *requestTimeout,
				MaxConcurrent:    *maxConcurrent,
				QueueDepth:       *queueDepth,
				TenantRate:       *tenantRate,
				BrownoutTarget:   *brownoutTarget,
				BreakerThreshold: *breakerThreshold,
				BreakerCooldown:  *breakerCooldown,
				// The chaos bench must push every request through admission,
				// the brownout ladder, and the faulted scan path; semantic
				// cache hits would bypass all three.
				SemCacheEntries: -1,
				Logf:            func(string, ...any) {}, // chaos noise stays out of the report
			},
		})
		if err != nil {
			return err
		}
		defer srv.Close()
		base = "http://" + ln.Addr().String()
		fmt.Printf("in-process server on %s (faults: %v)\n", base, injector != nil)
	}

	client := &http.Client{Timeout: *clientTimeout}
	fmt.Printf("driving %d sessions x %d queries over %d tenants...\n", *sessions, *queries, *tenants)
	start := time.Now()
	results := make([][]sample, *sessions)
	var wg sync.WaitGroup
	for w := 0; w < *sessions; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w] = driveSession(client, base, *dataset, w, *tenants, *queries)
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)

	report := summarize(results, wall)
	report["config"] = map[string]any{
		"target": *target, "sessions": *sessions, "queries": *queries,
		"tenants": *tenants, "dataset": *dataset,
		"maxConcurrent": *maxConcurrent, "queueDepth": *queueDepth,
		"tenantRate": *tenantRate, "requestTimeoutMs": requestTimeout.Milliseconds(),
		"brownoutTargetMs": brownoutTarget.Milliseconds(), "breakerThreshold": *breakerThreshold,
	}
	if serving := fetchServing(client, base); serving != nil {
		report["serving"] = serving
	}
	if injector != nil {
		report["faults"] = injector.Stats()
	}

	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*outPath, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", *outPath)
	fmt.Printf("requests=%v ok=%v shedRate=%.3f degradedRatio=%.3f p50=%.1fms p99=%.1fms unexplained5xx=%v grammarInvalid=%v\n",
		report["requests"], report["ok"], report["shedRate"], report["degradedRatio"],
		report["speechLatencyMs"].(map[string]float64)["p50"],
		report["speechLatencyMs"].(map[string]float64)["p99"],
		report["unexplained5xx"], report["grammarInvalid"])

	if *assert {
		return assertInvariants(report, *maxShedRate)
	}
	return nil
}

// serverConfig bundles the in-process server inputs.
type serverConfig struct {
	seed       int64
	flightRows int
	injector   *faults.Injector
	opts       web.Options
}

// startServer builds the datasets and serves the web API on a loopback
// listener, returning the http.Server for shutdown.
func startServer(sc serverConfig) (*http.Server, net.Listener, error) {
	flights, err := datagen.Flights(datagen.FlightsConfig{Rows: sc.flightRows, Seed: sc.seed})
	if err != nil {
		return nil, nil, err
	}
	salaries, err := datagen.Salaries(datagen.SalariesConfig{Seed: sc.seed + 1})
	if err != nil {
		return nil, nil, err
	}
	cfg := core.Config{
		Seed:                 sc.seed,
		Clock:                voice.NewSimClock(),
		SimRoundCost:         time.Millisecond,
		MaxRoundsPerSentence: 500,
		MaxTreeNodes:         50000,
	}
	if sc.injector != nil {
		cfg.Scanner = sc.injector.Scanner
	}
	srv, err := web.NewServerWith(cfg, sc.opts,
		web.DatasetInfo{Name: "flights", Dataset: flights, MeasureCol: "cancelled",
			MeasureDesc: "average cancellation probability", Format: speech.PercentFormat},
		web.DatasetInfo{Name: "salaries", Dataset: salaries, MeasureCol: "midCareerSalary",
			MeasureDesc: "average mid-career salary", Format: speech.ThousandsFormat},
	)
	if err != nil {
		return nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	return hs, ln, nil
}

// driveSession walks one session through the command script, alternating
// vocalization methods, and returns its samples.
func driveSession(client *http.Client, base, dataset string, w, tenants, queries int) []sample {
	session := fmt.Sprintf("load-%d", w)
	tenant := fmt.Sprintf("tenant-%d", w%tenants)
	out := make([]sample, 0, queries)
	for q := 0; q < queries; q++ {
		input := script[(w+q)%len(script)]
		method := "this"
		if (w+q)%2 == 1 {
			method = "prior"
		}
		out = append(out, postQuery(client, base, session, tenant, dataset, input, method))
	}
	return out
}

// postQuery issues one query and classifies the outcome.
func postQuery(client *http.Client, base, session, tenant, dataset, input, method string) sample {
	body, _ := json.Marshal(map[string]string{
		"session": session, "dataset": dataset, "input": input, "method": method,
	})
	req, err := http.NewRequest("POST", base+"/api/query", bytes.NewReader(body))
	if err != nil {
		return sample{code: -1}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", tenant)
	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return sample{code: -1, wall: time.Since(start)}
	}
	defer resp.Body.Close()
	s := sample{code: resp.StatusCode, wall: time.Since(start)}
	var payload struct {
		Speech    string `json:"speech"`
		ServedBy  string `json:"servedBy"`
		Origin    string `json:"origin"`
		Cache     string `json:"cache"`
		Degraded  bool   `json:"degraded"`
		Fallback  string `json:"fallback"`
		DataEpoch int64  `json:"dataEpoch"`
		Stale     bool   `json:"stale"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		return s
	}
	if resp.StatusCode == http.StatusOK && payload.Speech != "" {
		s.hasSpeech = true
		s.servedBy = payload.ServedBy
		s.origin = payload.Origin
		s.cache = payload.Cache
		s.degraded = payload.Degraded
		s.fallback = payload.Fallback
		s.speech = payload.Speech
		s.grammarOK = validSpeech(payload.Speech, payload.ServedBy, payload.Origin)
		s.dataEpoch = payload.DataEpoch
		s.stale = payload.Stale
	}
	return s
}

// validSpeech checks the answer against the grammar of the vocalizer that
// produced it: holistic answers must parse under the speech grammar; the
// prior baseline's enumeration just needs well-formed sentences. A cache
// replay is validated against the vocalizer that originally produced it
// (the response's origin field).
func validSpeech(text, servedBy, origin string) bool {
	if servedBy == "cache" {
		servedBy = origin
	}
	if servedBy == "prior" {
		t := strings.TrimSpace(text)
		return t != "" && strings.HasSuffix(t, ".")
	}
	return (speech.Parser{}).Conforms(text)
}

// summarize aggregates the samples into the benchmark report.
func summarize(results [][]sample, wall time.Duration) map[string]any {
	status := map[string]int{}
	var total, ok, speechOK, degraded, invalid, shed, unexplained5xx, transport int
	fallbacks := map[string]int{}
	var latencies []time.Duration
	var invalidExamples []string
	for _, samples := range results {
		for _, s := range samples {
			total++
			if s.code < 0 {
				transport++
				continue
			}
			status[fmt.Sprintf("%d", s.code)]++
			switch {
			case s.code == http.StatusTooManyRequests || s.code == http.StatusServiceUnavailable:
				shed++
			case s.code >= 500:
				// 503 is an intentional shed; any other 5xx is a bug.
				unexplained5xx++
			}
			if s.code == http.StatusOK {
				ok++
			}
			if s.hasSpeech {
				speechOK++
				latencies = append(latencies, s.wall)
				if s.degraded {
					degraded++
				}
				if s.fallback != "" {
					fallbacks[s.fallback]++
				}
				if !s.grammarOK {
					invalid++
					if len(invalidExamples) < 3 {
						invalidExamples = append(invalidExamples, s.speech)
					}
				}
			}
		}
	}
	report := map[string]any{
		"bench":           "serving",
		"num_cpu":         runtime.NumCPU(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"wallMs":          float64(wall) / float64(time.Millisecond),
		"requests":        total,
		"ok":              ok,
		"speechAnswers":   speechOK,
		"status":          status,
		"transportErrors": transport,
		"unexplained5xx":  unexplained5xx,
		"grammarInvalid":  invalid,
		"speechLatencyMs": map[string]float64{
			"p50": quantileMS(latencies, 0.50),
			"p95": quantileMS(latencies, 0.95),
			"p99": quantileMS(latencies, 0.99),
		},
		"shedRate":      ratio(shed, total),
		"degradedRatio": ratio(degraded, speechOK),
		"fallbacks":     fallbacks,
	}
	if len(invalidExamples) > 0 {
		report["grammarInvalidExamples"] = invalidExamples
	}
	return report
}

// ratio is n/d guarding the empty denominator.
func ratio(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// quantileMS returns the q-quantile of latencies in milliseconds.
func quantileMS(latencies []time.Duration, q float64) float64 {
	if len(latencies) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), latencies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(q * float64(len(sorted)-1))
	return float64(sorted[idx]) / float64(time.Millisecond)
}

// fetchServing pulls the server's overload-resilience stats (ladder-step
// counts, breaker states, per-tenant outcomes) for the report.
func fetchServing(client *http.Client, base string) any {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", base+"/api/stats", nil)
	if err != nil {
		return nil
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	var payload struct {
		Serving json.RawMessage `json:"serving"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil || len(payload.Serving) == 0 {
		return nil
	}
	return payload.Serving
}

// assertInvariants enforces the chaos contract on the report.
func assertInvariants(report map[string]any, maxShedRate float64) error {
	var violations []string
	if n := report["unexplained5xx"].(int); n > 0 {
		violations = append(violations, fmt.Sprintf("%d unexplained 5xx responses (overload must shed with 503, not error)", n))
	}
	if n := report["grammarInvalid"].(int); n > 0 {
		violations = append(violations, fmt.Sprintf("%d grammar-invalid speech answers (degradation must stay in-grammar)", n))
	}
	if r := report["shedRate"].(float64); r > maxShedRate {
		violations = append(violations, fmt.Sprintf("shed rate %.3f exceeds %.3f", r, maxShedRate))
	}
	if report["speechAnswers"].(int) == 0 {
		violations = append(violations, "no speech answer ever succeeded")
	}
	if n := report["transportErrors"].(int); n > 0 {
		violations = append(violations, fmt.Sprintf("%d transport errors", n))
	}
	if len(violations) == 0 {
		fmt.Println("ASSERT OK: zero unexplained 5xx, all speech in-grammar, shed rate bounded")
		return nil
	}
	return fmt.Errorf("chaos invariants violated:\n  - %s", strings.Join(violations, "\n  - "))
}
