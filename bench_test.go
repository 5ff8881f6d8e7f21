// Package repro_bench holds the benchmark harness that regenerates every
// table and figure of the paper (one benchmark per experiment) plus
// microbenchmarks backing the complexity analysis of Appendix A and the
// ablation sweeps of DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// Shapes, not absolute numbers, are the reproduction target; see
// EXPERIMENTS.md for the paper-versus-measured record.
package repro_bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/belief"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/experiments"
	"repro/internal/mcts"
	"repro/internal/nlq"
	"repro/internal/olap"
	"repro/internal/sampling"
	"repro/internal/semcache"
	"repro/internal/speech"
	"repro/internal/voice"
	"repro/internal/web"
)

// benchRows keeps benchmark dataset generation moderate; run cmd/benchrunner
// with -flight-rows 5300000 for paper scale.
const benchRows = 100000

var (
	setupOnce sync.Once
	setupVal  *experiments.Setup
	setupErr  error
)

func benchSetup(b *testing.B) *experiments.Setup {
	b.Helper()
	setupOnce.Do(func() {
		setupVal, setupErr = experiments.NewSetup(benchRows, 1)
	})
	if setupErr != nil {
		b.Fatalf("setup: %v", setupErr)
	}
	return setupVal
}

// --- One benchmark per paper table/figure ---

// BenchmarkFigure3 regenerates Figure 3: latency and quality of optimal,
// holistic, and unmerged across the eight flight queries.
func BenchmarkFigure3(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure3(s)
		if err != nil {
			b.Fatal(err)
		}
		sum := experiments.Summarize(rows)
		b.ReportMetric(float64(sum.MeanLatency["optimal"])/1e6, "optLatMs")
		b.ReportMetric(float64(sum.MeanLatency["holistic"])/1e6, "holLatMs")
		b.ReportMetric(sum.MeanQuality["holistic"], "holQuality")
		b.ReportMetric(sum.MeanQuality["unmerged"], "unmQuality")
	}
}

// BenchmarkTable2Pilot regenerates the pilot-study consistency counts.
func BenchmarkTable2Pilot(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.Table2(s)
		b.ReportMetric(float64(res.PerAspect["Variance"].Consistent), "varConsistent")
	}
}

// BenchmarkTable5Speeches regenerates the three alternative speeches for
// the region-by-season query with their exact qualities.
func BenchmarkTable5Speeches(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table5(s)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			switch r.Approach {
			case "optimal":
				b.ReportMetric(r.Quality, "optQuality")
			case "holistic":
				b.ReportMetric(r.Quality, "holQuality")
			case "unmerged":
				b.ReportMetric(r.Quality, "unmQuality")
			}
		}
	}
}

// BenchmarkTable6Errors regenerates the estimation study: median absolute
// user error per approach (Table 6) and tendency accuracy (Table 14).
func BenchmarkTable6Errors(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		studies, err := experiments.Table6And14(s)
		if err != nil {
			b.Fatal(err)
		}
		for _, st := range studies {
			switch st.Approach {
			case "optimal":
				b.ReportMetric(st.MedianAbsError, "optMedErr")
			case "holistic":
				b.ReportMetric(st.MedianAbsError, "holMedErr")
			case "unmerged":
				b.ReportMetric(st.MedianAbsError, "unmMedErr")
			}
		}
	}
}

// BenchmarkTable7Facts regenerates the extracted example facts.
func BenchmarkTable7Facts(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		facts, err := experiments.Table7(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(facts)), "facts")
	}
}

// BenchmarkTable8Preferences regenerates the exploratory preference study
// (reduced session count; cmd/benchrunner runs the full 20).
func BenchmarkTable8Preferences(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		studies, err := experiments.Table8And9(s, 4)
		if err != nil {
			b.Fatal(err)
		}
		flights := studies[1].Result
		thisVotes := flights.Prefs[3] + flights.Prefs[4]
		priorVotes := flights.Prefs[0] + flights.Prefs[1]
		b.ReportMetric(float64(thisVotes), "thisVotes")
		b.ReportMetric(float64(priorVotes), "priorVotes")
	}
}

// BenchmarkTable9Lengths regenerates the speech-length comparison: prior
// output dwarfs ours, especially on the multi-dimensional flights data.
func BenchmarkTable9Lengths(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		studies, err := experiments.Table8And9(s, 3)
		if err != nil {
			b.Fatal(err)
		}
		fl := studies[1].Result.Lengths
		b.ReportMetric(float64(fl.ThisAvg), "thisAvg")
		b.ReportMetric(float64(fl.PriorAvg), "priorAvg")
		b.ReportMetric(float64(fl.PriorMax), "priorMax")
	}
}

// BenchmarkTable11Stats regenerates the dataset statistics.
func BenchmarkTable11Stats(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats := experiments.Table11(s)
		b.ReportMetric(float64(stats[1].Rows), "flightRows")
	}
}

// BenchmarkTable12FullResult regenerates the exact region-by-season result.
func BenchmarkTable12FullResult(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table12(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].Cancellation, "topCell")
	}
}

// BenchmarkTable13Speeches regenerates the fine-grained query comparison.
func BenchmarkTable13Speeches(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table13(s); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (design choices called out in DESIGN.md) ---

func runAblation(b *testing.B, f func(*experiments.Setup) ([]experiments.AblationRow, error)) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := f(s)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.Quality, metricUnit(r.Variant))
		}
	}
}

// metricUnit turns a human-readable variant label into a metric unit
// (testing.B forbids whitespace in units).
func metricUnit(label string) string {
	var out []rune
	for _, r := range label {
		switch {
		case r == ' ' || r == '\t' || r == '/':
			out = append(out, '-')
		case r == '(' || r == ')':
			// drop
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

// BenchmarkAblationUniformVsUCT quantifies what UCT prioritization buys
// over uniform random tree sampling.
func BenchmarkAblationUniformVsUCT(b *testing.B) {
	runAblation(b, experiments.AblationUCTVsUniform)
}

// BenchmarkAblationResampleSize compares running-mean estimates against
// the fixed-size resampling of the paper's literal Algorithm 3.
func BenchmarkAblationResampleSize(b *testing.B) {
	runAblation(b, experiments.AblationResample)
}

// BenchmarkAblationAbsoluteRefinements compares the relative-refinement
// grammar against a disjoint-scope (absolute-claim) restriction.
func BenchmarkAblationAbsoluteRefinements(b *testing.B) {
	runAblation(b, experiments.AblationRelativeVsAbsolute)
}

// BenchmarkAblationSigma sweeps the belief σ around the paper's 50%-of-
// mean choice.
func BenchmarkAblationSigma(b *testing.B) {
	runAblation(b, experiments.AblationSigma)
}

// BenchmarkAblationFragments sweeps the refinement budget k.
func BenchmarkAblationFragments(b *testing.B) {
	runAblation(b, experiments.AblationFragments)
}

// BenchmarkAblationPlanningBudget sweeps rounds per sentence — the
// learning curve behind the pipelining argument.
func BenchmarkAblationPlanningBudget(b *testing.B) {
	runAblation(b, experiments.AblationPlanningBudget)
}

// BenchmarkMetricComparison scores the Table 5 speeches under all four
// belief-to-data metrics.
func BenchmarkMetricComparison(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.MetricComparison(s)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.Quality, r.Approach+"-quality")
		}
	}
}

// --- Microbenchmarks backing Appendix A ---

type microEnv struct {
	space  *olap.Space
	gen    *speech.Generator
	model  *belief.Model
	cache  *sampling.Cache
	result *olap.Result
}

var (
	microOnce sync.Once
	microVal  *microEnv
	microErr  error
)

func microSetup(b *testing.B) *microEnv {
	b.Helper()
	microOnce.Do(func() {
		d, err := datagen.Flights(datagen.FlightsConfig{Rows: 50000, Seed: 5})
		if err != nil {
			microErr = err
			return
		}
		q := olap.Query{
			Fct: olap.Avg, Col: "cancelled",
			ColDescription: "average cancellation probability",
			GroupBy: []olap.GroupBy{
				{Hierarchy: d.HierarchyByName("start airport"), Level: 1},
				{Hierarchy: d.HierarchyByName("flight date"), Level: 1},
			},
		}
		space, err := olap.NewSpace(d, q)
		if err != nil {
			microErr = err
			return
		}
		result, err := olap.EvaluateSpace(space)
		if err != nil {
			microErr = err
			return
		}
		model, err := belief.NewModel(space, belief.SigmaFromScale(result.GrandValue()))
		if err != nil {
			microErr = err
			return
		}
		cache, err := sampling.NewCache(space)
		if err != nil {
			microErr = err
			return
		}
		rows := make([]int, 20000)
		for i := range rows {
			rows[i] = i
		}
		cache.InsertBatch(rows)
		microVal = &microEnv{space: space, gen: speech.NewGenerator(space, speech.DefaultPrefs(), speech.PercentFormat), model: model, cache: cache, result: result}
	})
	if microErr != nil {
		b.Fatalf("micro setup: %v", microErr)
	}
	return microVal
}

// BenchmarkMCTSSampleComplexity measures one tree-sampling round, the
// inner-loop operation that must stay far below sentence playback time.
// Theorem A.3 bounds it by O(k·m): k levels, each scoring its m children. A
// round here costs less on every level: O(m/64) words while a level still
// has an unvisited child, and once it has none at most one UCT bound per
// distinct visit count among the m, a few more where bounds tie
// (internal/mcts; BenchmarkSampleBatch there reports both as
// children/sample and scored/sample).
func BenchmarkMCTSSampleComplexity(b *testing.B) {
	e := microSetup(b)
	rng := rand.New(rand.NewSource(1))
	eval := func(sp *speech.Speech) (float64, bool) {
		a, ok := e.cache.PickAggregate(rng)
		if !ok {
			return 0, false
		}
		est, ok := e.cache.Estimate(a, rng)
		if !ok {
			return 0, false
		}
		return e.model.Reward(sp, a, est), true
	}
	tree, err := mcts.NewTree(e.gen, e.result.GrandValue(), eval, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Sample()
	}
}

// BenchmarkTreeExpand measures full eager tree construction — the O(m^k)
// pre-processing of Theorem A.4, overlapped by the preamble in practice.
func BenchmarkTreeExpand(b *testing.B) {
	e := microSetup(b)
	rng := rand.New(rand.NewSource(2))
	eval := func(*speech.Speech) (float64, bool) { return 0.5, true }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree, err := mcts.NewTree(e.gen, e.result.GrandValue(), eval, rng)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(tree.NodeCount()), "nodes")
	}
}

// BenchmarkSpeechDBEval measures one speech-vs-sample evaluation
// (Lemma A.2's O(k) operation).
func BenchmarkSpeechDBEval(b *testing.B) {
	e := microSetup(b)
	rng := rand.New(rand.NewSource(3))
	sp := &speech.Speech{Baseline: &speech.Baseline{Value: 0.02, AggName: "average cancellation probability", Format: speech.PercentFormat}}
	sp = sp.Extend(e.gen.Refinements(nil)[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, _ := e.cache.PickAggregate(rng)
		est, _ := e.cache.Estimate(a, rng)
		e.model.Reward(sp, a, est)
	}
}

// BenchmarkExactQuality measures full exact speech-quality scoring — what
// the optimal baseline pays per candidate speech.
func BenchmarkExactQuality(b *testing.B) {
	e := microSetup(b)
	sp := &speech.Speech{Baseline: &speech.Baseline{Value: 0.02, AggName: "average cancellation probability", Format: speech.PercentFormat}}
	sp = sp.Extend(e.gen.Refinements(nil)[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.model.Quality(sp, e.result)
	}
}

// BenchmarkExactEvaluate measures a full exact group-by scan — the cost
// the holistic approach amortizes away.
func BenchmarkExactEvaluate(b *testing.B) {
	e := microSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := olap.EvaluateSpace(e.space); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Incremental quality kernel ---

// BenchmarkScorerQuality measures one DFS edge of the incremental quality
// kernel (Push + Quality + Pop): what core.Optimal pays per candidate
// speech. Compare against BenchmarkExactQuality, the scalar Model.Quality
// on an equivalent one-refinement speech.
func BenchmarkScorerQuality(b *testing.B) {
	e := microSetup(b)
	sc := e.model.NewScorer(e.result)
	sp := &speech.Speech{Baseline: &speech.Baseline{Value: 0.02, AggName: "average cancellation probability", Format: speech.PercentFormat}}
	sc.Reset(sp)
	r := e.gen.Refinements(nil)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.Push(r)
		sc.Quality()
		sc.Pop()
	}
}

// BenchmarkHolisticEndToEnd measures one complete holistic vocalization on
// a simulated clock.
func BenchmarkHolisticEndToEnd(b *testing.B) {
	s := benchSetup(b)
	q, err := s.FlightsQuery("-", "RD")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := core.Config{
			Format:               speech.PercentFormat,
			Seed:                 int64(i),
			Clock:                voice.NewSimClock(),
			MaxRoundsPerSentence: 2000,
		}
		if _, err := core.NewHolistic(s.Flights, q, cfg).Vocalize(); err != nil {
			b.Fatal(err)
		}
	}
}

// coldRows is the benchmark's flights table: the paper's 5.3 M rows.
const coldRows = 5300000

var (
	coldOnce  sync.Once
	coldData  *olap.Dataset
	coldError error
)

// coldTable generates the 5.3 M-row flights table once per test binary.
func coldTable(b *testing.B) *olap.Dataset {
	b.Helper()
	coldOnce.Do(func() {
		coldData, coldError = datagen.Flights(datagen.FlightsConfig{Rows: coldRows, Seed: 1})
	})
	if coldError != nil {
		b.Fatal(coldError)
	}
	return coldData
}

// coldQueries are the 17 canonical queries of the benchmark's repeat_zipf
// workload, each as the utterances that reach it from a fresh session
// (which groups by region): six single dimensions, then every pair of
// dimensions from different hierarchies.
func coldQueries() [][]string {
	const depend = "how does cancellation depend on "
	type dim struct{ hierarchy, alias string }
	dims := []dim{
		{"start airport", "region"}, {"flight date", "season"}, {"airline", "airline"},
		{"start airport", "state"}, {"flight date", "month"}, {"start airport", "city"},
	}
	from := func(d ...dim) []string {
		for _, x := range d {
			if x.hierarchy == "start airport" {
				return nil
			}
		}
		return []string{"remove start airport"}
	}
	var qs [][]string
	for _, d := range dims {
		qs = append(qs, append(from(d), depend+d.alias))
	}
	for i, a := range dims {
		for _, b := range dims[i+1:] {
			if a.hierarchy != b.hierarchy {
				qs = append(qs, append(from(a, b), depend+a.alias+" and "+b.alias))
			}
		}
	}
	return qs
}

// BenchmarkColdAnswers plans the 17 repeat_zipf canonical queries over
// 5.3 M flights with the daemon's planner configuration, one after another
// as the benchmark's warm-up does to fill the answer cache, and reports ms
// per set: the planning share of that workload's setup_s without the boot,
// the HTTP round trips or the other processes of a whole run. On Linux it
// also reports planner-cpu-ms/set, the CPU of the goroutine that plans (it
// is locked to its OS thread; the row workers run elsewhere), which spreads
// far less than the wall time on a shared machine. Compare commits at
// -cpu 1 and -cpu 2, alternating the binaries.
func BenchmarkColdAnswers(b *testing.B) {
	d := coldTable(b)
	var queries []olap.Query
	for _, utterances := range coldQueries() {
		sess, err := nlq.NewSession(d, olap.Avg, "cancelled", "average cancellation probability")
		if err != nil {
			b.Fatal(err)
		}
		for _, u := range utterances {
			if _, err := sess.Parse(u); err != nil {
				b.Fatalf("%q: %v", u, err)
			}
		}
		queries = append(queries, semcache.Normalize(sess.Query()))
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	b.ResetTimer()
	start, perThread := threadCPU()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			cfg := core.DaemonConfig(1)
			cfg.Format = speech.PercentFormat
			if _, err := core.NewHolistic(d, q, cfg).Vocalize(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N), "ms/set")
	if end, ok := threadCPU(); perThread && ok {
		b.ReportMetric(float64((end-start).Microseconds())/1e3/float64(b.N), "planner-cpu-ms/set")
	}
}

// BenchmarkOverload drives a daemon-configured web.Server over loopback
// HTTP with closed-loop clients and reports what admission does under
// overload. The server plans the 17 coldQueries over 5.3 M flights with
// core.DaemonConfig and the semantic cache off, so every answer is planned.
// 2, 4 and 8 clients offer 1x, 2x and 4x the load two cores serve: each
// sends its next utterance when its reply arrives, and after a 503 waits
// the Retry-After it was given. Slots range over {2, 4, 8, 32}. An
// iteration is one admitted answer. Per cell it reports goodput (admitted
// answers per second of the run), p50 and p99 wall of the admitted
// answers, the share of requests shed and the share of admitted answers
// past the paper's 500 ms interactivity threshold. Run the grid five times
// with -benchtime=200x, so the repeats of a cell spread over the whole run
// (EXPERIMENTS.md, "Admission under overload").
func BenchmarkOverload(b *testing.B) {
	d := coldTable(b)
	for _, clients := range []int{2, 4, 8} {
		for _, slots := range []int{2, 4, 8, 32} {
			b.Run(fmt.Sprintf("clients=%d/slots=%d", clients, slots), func(b *testing.B) {
				runOverload(b, d, clients, slots)
			})
		}
	}
}

// runOverload serves d behind slots admission slots and runs clients
// closed-loop clients until b.N answers have been admitted.
func runOverload(b *testing.B, d *olap.Dataset, clients, slots int) {
	opts := web.Options{MaxConcurrent: slots, SemCacheEntries: -1, Logf: func(string, ...any) {}}
	srv, err := web.NewServerWith(core.DaemonConfig(1), opts, web.DatasetInfo{
		Name: "flights", Dataset: d, MeasureCol: "cancelled",
		MeasureDesc: "average cancellation probability", Format: speech.PercentFormat,
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	defer client.CloseIdleConnections()
	queries := coldQueries()

	var (
		mu       sync.Mutex
		walls    []time.Duration
		requests int
		sheds    int
	)
	done := make(chan struct{})
	var closeDone sync.Once
	var wg sync.WaitGroup
	b.ResetTimer()
	start := time.Now()
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; ; n++ {
				// Clients walk the queries from different offsets, each query
				// from a fresh session.
				session := fmt.Sprintf("c%d-%d", c, n)
				for _, u := range queries[(c+n*clients)%len(queries)] {
					for {
						select {
						case <-done:
							return
						default:
						}
						t0 := time.Now()
						code, retry, err := postUtterance(client, ts.URL, fmt.Sprint("client", c), session, u)
						wall := time.Since(t0)
						if err != nil {
							b.Error(err)
							return
						}
						mu.Lock()
						requests++
						switch code {
						case http.StatusOK:
							walls = append(walls, wall)
							if len(walls) == b.N {
								closeDone.Do(func() { close(done) })
							}
						case http.StatusServiceUnavailable:
							sheds++
						}
						mu.Unlock()
						if code == http.StatusOK {
							break
						}
						if code != http.StatusServiceUnavailable {
							b.Errorf("%q: status %d", u, code)
							return
						}
						select {
						case <-done:
							return
						case <-time.After(retry):
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	b.StopTimer()
	if len(walls) == 0 {
		return
	}
	slices.Sort(walls)
	late := 0
	for _, w := range walls {
		if w > 500*time.Millisecond {
			late++
		}
	}
	at := func(q float64) float64 {
		i := int(math.Ceil(q*float64(len(walls)))) - 1
		return float64(walls[max(i, 0)].Microseconds()) / 1e3
	}
	b.ReportMetric(0, "ns/op")
	b.ReportMetric(float64(len(walls))/elapsed.Seconds(), "answers/s")
	b.ReportMetric(at(0.5), "p50-ms")
	b.ReportMetric(at(0.99), "p99-ms")
	b.ReportMetric(float64(sheds)/float64(requests), "shed-share")
	b.ReportMetric(float64(late)/float64(len(walls)), "late-share")
}

// postUtterance sends one /api/query for the holistic vocalizer and returns
// the status and, on a 503, the Retry-After it carries.
func postUtterance(client *http.Client, base, tenant, session, input string) (int, time.Duration, error) {
	body, err := json.Marshal(map[string]string{
		"session": session, "dataset": "flights", "input": input, "method": "this",
	})
	if err != nil {
		return 0, 0, err
	}
	req, err := http.NewRequest("POST", base+"/api/query", bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", tenant)
	resp, err := client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return 0, 0, err
	}
	var retry time.Duration
	if resp.StatusCode == http.StatusServiceUnavailable {
		secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
		if err != nil {
			return 0, 0, fmt.Errorf("503 without a Retry-After in seconds: %v", err)
		}
		retry = time.Duration(secs) * time.Second
	}
	return resp.StatusCode, retry, nil
}
