package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"time"

	"repro/internal/admission"
	"repro/internal/belief"
	"repro/internal/core"
	"repro/internal/encode"
	"repro/internal/experiments"
	"repro/internal/mcts"
	"repro/internal/nlq"
	"repro/internal/olap"
	"repro/internal/sampling"
	"repro/internal/semcache"
	"repro/internal/speech"
	"repro/internal/table"
	"repro/internal/voice"
)

// span is one traced interval. Calls made thousands of times per answer
// (a planning round's row read and tree samples, each sample's estimate
// and reward) are folded into one span per stage and planning window: it
// carries how many calls it holds and their summed duration, and runs
// from the first call's start to the last call's end. Every other span is
// one call, with Busy = End - Start.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a request's root span
	Request int    `json:"request"`
	Name    string `json:"name"` // "<layer>.<call>"
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	BusyNS  int64  `json:"busy_ns"`
	Calls   int    `json:"calls"`
}

// tracer keeps the spans of a replay in memory until it ends.
type tracer struct {
	t0    time.Time
	spans []span
}

// begin opens a span for one call.
func (t *tracer) begin(parent, request int, name string) int {
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Request: request,
		Name: name, StartNS: int64(time.Since(t.t0)), Calls: 1})
	return len(t.spans) - 1
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	s := &t.spans[id]
	s.EndNS = int64(time.Since(t.t0))
	s.BusyNS = s.EndNS - s.StartNS
}

// folded opens an empty span that add fills call by call.
func (t *tracer) folded(parent, request int, name string) int {
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Request: request, Name: name})
	return len(t.spans) - 1
}

// add folds one call into a span opened by folded.
func (t *tracer) add(id int, start, end time.Time) {
	s := &t.spans[id]
	if s.Calls == 0 {
		s.StartNS = int64(start.Sub(t.t0))
	}
	s.EndNS = int64(end.Sub(t.t0))
	s.BusyNS += int64(end.Sub(start))
	s.Calls++
}

// selfByLayer returns each layer's self time: the busy time of its spans
// minus the busy time of their child spans.
func (t *tracer) selfByLayer() map[string]time.Duration {
	children := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.BusyNS
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += time.Duration(s.BusyNS - children[s.ID])
	}
	return out
}

// write saves the spans as JSON.
func (t *tracer) write(path string) error {
	raw, err := json.Marshal(map[string]any{"spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// wireResponse has the fields of the server's query response, to time
// the same json.Marshal.
type wireResponse struct {
	Action     string         `json:"action"`
	Message    string         `json:"message,omitempty"`
	Speech     string         `json:"speech,omitempty"`
	LatencyMS  float64        `json:"latencyMs"`
	Structured *encode.Speech `json:"structured,omitempty"`
	SSML       string         `json:"ssml,omitempty"`
	ServedBy   string         `json:"servedBy,omitempty"`
	Origin     string         `json:"origin,omitempty"`
	Cache      string         `json:"cache,omitempty"`
	DataEpoch  int64          `json:"dataEpoch"`
	TableRows  int64          `json:"tableRows,omitempty"`
}

// replayer pushes requests through the layers' public functions in the
// order internal/web and internal/core call them, recording a span per
// call. It is single-threaded and shares nothing with the server.
type replayer struct {
	tr   *tracer
	d    *olap.Dataset
	cfg  core.Config
	adm  *admission.Controller
	memo *semcache.Cache[*speech.Speech] // nil when the workload runs with caches off
	// what the black-box runs and their replays measured
	blackBox, replayed time.Duration
	rounds, rows       int64
	samples            int64
	vocalized, matched int
	buildNodes, nodes  int64
	build              time.Duration
}

// planShape is what a black-box run tells the replay: the rounds of each
// planning window, the last being the window after the final sentence.
type planShape struct {
	windows []int
	text    string
}

// blackBox runs the planner as the server does, with a trace attached, and
// returns its shape.
func (rp *replayer) blackBoxRun(q olap.Query) (planShape, error) {
	cfg := rp.cfg
	cfg.Clock = voice.NewSimClock()
	cfg.Trace = &core.Trace{}
	start := time.Now()
	out, err := core.NewHolistic(rp.d, q, cfg).VocalizeContext(context.Background())
	if err != nil {
		return planShape{}, err
	}
	rp.blackBox += time.Since(start)
	norm := cfg.Normalize()
	total := int(out.TreeSamples) / norm.SamplesPerRound
	shape := planShape{text: out.Text()}
	for _, s := range cfg.Trace.Sentences {
		shape.windows = append(shape.windows, s.Rounds)
		total -= s.Rounds
	}
	shape.windows = append(shape.windows, max(total, 0))
	rp.rounds += out.TreeSamples / int64(norm.SamplesPerRound)
	rp.rows += out.RowsRead
	rp.samples += out.TreeSamples
	rp.buildNodes += int64(cfg.Trace.TreeNodes)
	return shape, nil
}

// vocalize replays core.Holistic for q under parent, following shape.
func (rp *replayer) vocalize(parent, req int, q olap.Query, shape planShape) (*speech.Speech, error) {
	tr, cfg, ctx := rp.tr, rp.cfg.Normalize(), context.Background()
	start := time.Now()

	id := tr.begin(parent, req, "olap.new_space")
	space, err := olap.NewSpace(rp.d, q)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin(parent, req, "speech.new_generator")
	gen := speech.NewGenerator(space, cfg.Prefs, cfg.Format)
	gen.NewPreamble()
	tr.end(id)
	rng := rand.New(rand.NewSource(cfg.Seed))
	id = tr.begin(parent, req, "sampling.new_sampler")
	sampler, err := sampling.NewSamplerWithScanner(space, table.NewRandomScanner(rp.d.Table(), rng))
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin(parent, req, "sampling.read_rows")
	sampler.ReadRowsContext(ctx, cfg.InitialRows)
	scale, ok := sampler.Cache().GrandEstimate()
	tr.end(id)
	if !ok {
		scale = 0
	}
	sigma := belief.SigmaFromScale(scale)
	if sigma <= 0 {
		sigma = 1
	}
	id = tr.begin(parent, req, "belief.new_model")
	model, err := belief.NewModel(space, sigma)
	tr.end(id)
	if err != nil {
		return nil, err
	}

	// estimate and reward are the folded spans of the current window.
	var estimate, reward int
	cache := sampler.Cache()
	eval := func(sp *speech.Speech) (float64, bool) {
		t0 := time.Now()
		a, ok := cache.PickAggregate(rng)
		if !ok {
			return 0, false
		}
		e, ok := cache.Estimate(a, rng)
		if !ok {
			return 0, false
		}
		t1 := time.Now()
		r := model.Reward(sp, a, e)
		t2 := time.Now()
		tr.add(estimate, t0, t1)
		tr.add(reward, t1, t2)
		return r, true
	}
	id = tr.begin(parent, req, "mcts.build")
	tree, err := mcts.NewTreeWithCap(gen, speech.SpeechScale(scale), eval, rng, cfg.MaxTreeNodes)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	rp.build += time.Duration(tr.spans[id].BusyNS)

	for _, rounds := range shape.windows {
		window := tr.begin(parent, req, "core.window")
		read := tr.folded(window, req, "sampling.read_rows")
		sample := tr.folded(window, req, "mcts.sample_batch")
		estimate = tr.folded(sample, req, "sampling.estimate")
		reward = tr.folded(sample, req, "belief.reward")
		for r := 0; r < rounds; r++ {
			t0 := time.Now()
			sampler.ReadRowsContext(ctx, cfg.RowsPerRound)
			t1 := time.Now()
			if _, err := tree.SampleBatch(ctx, cfg.SamplesPerRound); err != nil {
				return nil, err
			}
			t2 := time.Now()
			tr.add(read, t0, t1)
			tr.add(sample, t1, t2)
		}
		commit := tr.begin(window, req, "mcts.commit")
		if best := tree.BestChild(); best != nil {
			tree.Advance(best)
			tree.Speech(best).LastSentence()
		}
		tr.end(commit)
		tr.end(window)
	}
	sp := tree.Speech(tree.Root())
	rp.replayed += time.Since(start)
	rp.nodes += int64(tree.NodeCount())
	rp.vocalized++
	if sp.Text() == shape.text {
		rp.matched++
	}
	return sp, nil
}

// request replays one request as handleQuery serves it; live is the
// session the server would hold for it.
func (rp *replayer) request(req int, live *nlq.Session, r request) error {
	tr := rp.tr
	root := tr.begin(-1, req, "replay.request")
	defer tr.end(root)

	id := tr.begin(root, req, "nlq.clone")
	staged := live.Clone()
	tr.end(id)
	id = tr.begin(root, req, "nlq.parse")
	resp, err := staged.Parse(r.Input)
	tr.end(id)
	if err != nil {
		return err
	}
	commit := func() error {
		id := tr.begin(root, req, "nlq.parse")
		defer tr.end(id)
		_, err := live.Parse(r.Input)
		return err
	}
	if !resp.IsQuery {
		return commit()
	}
	var sp *speech.Speech
	if rp.memo != nil {
		// The pre-admission probe of tryServeCached.
		id = tr.begin(root, req, "nlq.clone")
		probe := live.Clone()
		tr.end(id)
		id = tr.begin(root, req, "nlq.parse")
		_, err = probe.Parse(r.Input)
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin(root, req, "semcache.key")
		key := semcache.Key(probe.Query())
		tr.end(id)
		id = tr.begin(root, req, "semcache.get")
		sp, _ = rp.memo.Get(key)
		tr.end(id)
	}
	if sp != nil {
		if err := commit(); err != nil {
			return err
		}
	} else {
		id = tr.begin(root, req, "admission.acquire")
		res := rp.adm.Acquire(context.Background(), tenant)
		tr.end(id)
		if res.Ticket == nil {
			return fmt.Errorf("replay: admission shed an uncontended request (%v)", res.Shed)
		}
		if err := commit(); err != nil {
			return err
		}
		id = tr.begin(root, req, "semcache.normalize")
		nq := semcache.Normalize(live.Query())
		tr.end(id)
		shape, err := rp.blackBoxRun(nq)
		if err != nil {
			return err
		}
		if rp.memo == nil {
			sp, err = rp.vocalize(root, req, nq, shape)
		} else {
			do := tr.begin(root, req, "semcache.do")
			sp, _, err = rp.memo.Do(context.Background(), semcache.Key(nq), func() (*speech.Speech, bool, error) {
				sp, err := rp.vocalize(do, req, nq, shape)
				return sp, true, err
			})
			tr.end(do)
		}
		if err != nil {
			return err
		}
		id = tr.begin(root, req, "admission.release")
		res.Ticket.Release()
		tr.end(id)
	}
	id = tr.begin(root, req, "encode.speech")
	enc := encode.EncodeSpeech(sp)
	tr.end(id)
	id = tr.begin(root, req, "speech.ssml")
	ssml := sp.SSML(speech.DefaultSSMLOptions())
	tr.end(id)
	id = tr.begin(root, req, "encode.json")
	_, err = json.Marshal(wireResponse{Action: resp.Action, Message: resp.Message, Speech: enc.Text,
		Structured: &enc, SSML: ssml, ServedBy: "this", TableRows: int64(rp.d.Table().NumRows())})
	tr.end(id)
	return err
}

// traceLayers are the layers whose self time a traced run reports.
var traceLayers = []string{"nlq", "semcache", "admission", "olap", "speech", "sampling", "belief", "mcts", "encode"}

// maxReplayed bounds the replayed requests of a traced run.
const maxReplayed = 50

// traceWorkload is the second half of a traced run: the replay with
// spans, the same requests through the handler without a socket, and the
// layer probes. httpP50 is the HTTP phase's median answer latency.
func traceWorkload(r *run, o options, d *driver, sessions []session, httpP50 float64) error {
	w, t := d.w, d.t
	cfg, _ := daemonConfig(w.cacheOff)
	cfg.Format = speech.PercentFormat
	rp := &replayer{tr: &tracer{t0: time.Now()}, d: t.flights, cfg: cfg,
		adm: admission.NewController(admission.Config{Slots: 32})}
	if !w.cacheOff {
		rp.memo = semcache.New[*speech.Speech](1024)
	}
	// The replay gets a quarter of the run: a cold answer runs twice,
	// once as a black box and once with spans.
	deadline := time.Now().Add(time.Duration(o.seconds / 4 * float64(time.Second)))
	replayed, answers := 0, 0
	var answerTimes []time.Duration
replay:
	for _, sess := range sessions {
		live, err := newMirror(t.flights)
		if err != nil {
			return err
		}
		for _, req := range sess {
			if replayed >= maxReplayed || time.Now().After(deadline) && rp.vocalized > 0 {
				break replay
			}
			before := rp.blackBox
			start := time.Now()
			if err := rp.request(replayed, live, req); err != nil {
				return fmt.Errorf("replay of %q: %w", req.Input, err)
			}
			replayed++
			if req.Answer {
				answers++
				answerTimes = append(answerTimes, time.Since(start)-(rp.blackBox-before))
			}
		}
	}
	if o.traceOut != "" {
		if err := rp.tr.write(o.traceOut); err != nil {
			return err
		}
	}
	self := rp.tr.selfByLayer()
	for _, layer := range traceLayers {
		r.set("trace."+layer+"_self_ms", ms(self[layer])/float64(max(answers, 1)))
	}
	// Tracing overhead is the replay's median answer against the HTTP
	// phase's: the same code path, but other requests at another moment,
	// and on a two-client workload without the second client's load.
	perAnswer := percentile(answerTimes, 0.5)
	r.set("trace.request_ms", perAnswer)
	overhead := 0.0
	if httpP50 > 0 {
		overhead = perAnswer/httpP50 - 1
	}
	r.set("trace.overhead_ratio", overhead)
	n := float64(max(rp.vocalized, 1))
	coverage := 0.0
	if rp.blackBox > 0 {
		coverage = rp.replayed.Seconds() / rp.blackBox.Seconds()
	}
	r.set("core.trace_coverage", coverage)
	if coverage < 0.8 || coverage > 1.2 {
		r.note("core.trace_coverage %.2f is outside 0.8-1.2: the replay has drifted from internal/core", coverage)
	}
	if rp.matched != rp.vocalized {
		r.note("only %d of %d replayed plans spoke the black box's speech: the replay has drifted from internal/core", rp.matched, rp.vocalized)
	}
	r.note("replayed %d requests (%d answers, %d planned) in %d spans", replayed, answers, rp.vocalized, len(rp.tr.spans))
	r.set("core.vocalize_ms", ms(rp.blackBox)/n)
	r.set("core.rounds_per_answer", float64(rp.rounds)/n)
	r.set("core.rows_per_answer", float64(rp.rows)/n)
	r.set("core.samples_per_answer", float64(rp.samples)/n)
	roundsPerS := 0.0
	if rp.blackBox > 0 {
		roundsPerS = float64(rp.rounds) / rp.blackBox.Seconds()
	}
	r.set("core.rounds_per_s", roundsPerS)
	r.set("mcts.build_ms", ms(rp.build)/n)
	r.set("mcts.build_nodes", float64(rp.buildNodes)/n)
	r.set("mcts.nodes_after", float64(rp.nodes)/n)

	if err := optimalMetrics(r, w, t.flights, cfg); err != nil {
		return err
	}
	if err := handlerReplay(r, o, d, sessions); err != nil {
		return err
	}
	return probeLayers(r, t.flights, sessions)
}

// figure3 lists the paper's eight Figure 3 queries as filter and
// breakdown, in experiments.Setup.FlightsQuery's notation.
var figure3 = [][2]string{{"-", "R"}, {"-", "D"}, {"-", "A"}, {"-", "RD"}, {"N", "D"}, {"W", "R"}, {"N", "DA"}, {"W", "RA"}}

// optimalMetrics times core.Optimal on the Figure 3 queries and compares
// the holistic planner's exact quality with it. Optimal takes seconds per
// query, so only the workload that asks for it pays.
func optimalMetrics(r *run, w workload, d *olap.Dataset, cfg core.Config) error {
	if !w.figure3 {
		r.set("core.optimal_ms", 0)
		r.set("core.quality_ratio", 0)
		return nil
	}
	setup := &experiments.Setup{Flights: d}
	orc := newOracle(d)
	var optimal time.Duration
	var qHolistic, qOptimal float64
	for _, spec := range figure3 {
		q, err := setup.FlightsQuery(spec[0], spec[1])
		if err != nil {
			return err
		}
		q = semcache.Normalize(q)
		ex, err := orc.exactFor(q)
		if err != nil {
			return err
		}
		cfg.Clock = voice.NewSimClock()
		start := time.Now()
		opt, err := core.NewOptimal(d, q, cfg).VocalizeContext(context.Background())
		if err != nil {
			return err
		}
		optimal += time.Since(start)
		hol, err := core.NewHolistic(d, q, cfg).VocalizeContext(context.Background())
		if err != nil {
			return err
		}
		qOptimal += ex.model.Quality(opt.Speech, ex.result)
		qHolistic += ex.model.Quality(hol.Speech, ex.result)
	}
	r.set("core.optimal_ms", ms(optimal)/float64(len(figure3)))
	r.set("core.quality_ratio", qHolistic/qOptimal)
	return nil
}

// handlerReplay sends each request twice, once over the socket and once
// straight into the server's handler with an in-memory recorder, in
// sessions of their own, so socket and client cost separate from handler
// cost: web.transport_us is the median difference of the pairs. On an
// ingest workload it also times the ingest handler.
func handlerReplay(r *run, o options, d *driver, sessions []session) error {
	h := d.t.srv.Handler()
	serve := func(path string, body []byte) (time.Duration, *httptest.ResponseRecorder) {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Tenant", tenant)
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, req)
		return time.Since(start), rec
	}
	deadline := time.Now().Add(time.Duration(o.seconds / 8 * float64(time.Second)))
	var inMemory, extra []time.Duration
handler:
	for i, sess := range sessions {
		for _, req := range sess {
			if time.Now().After(deadline) && len(inMemory) > 0 {
				break handler
			}
			body := func(via string) ([]byte, error) {
				return json.Marshal(map[string]string{"session": fmt.Sprintf("%s-%d", via, i),
					"dataset": "flights", "input": req.Input, "method": "this"})
			}
			viaSocket, err := body("socket")
			if err != nil {
				return err
			}
			start := time.Now()
			status, _, err := d.post("/api/query", viaSocket)
			socket := time.Since(start)
			if err != nil || status != http.StatusOK {
				return fmt.Errorf("socket replay of %q: status %d, %v", req.Input, status, err)
			}
			viaHandler, err := body("handler")
			if err != nil {
				return err
			}
			direct, rec := serve("/api/query", viaHandler)
			if rec.Code != http.StatusOK {
				return fmt.Errorf("handler replay of %q: status %d: %s", req.Input, rec.Code, rec.Body)
			}
			if req.Answer {
				inMemory = append(inMemory, direct)
				extra = append(extra, socket-direct)
			}
		}
	}
	r.set("web.handler_us", percentile(inMemory, 0.5)*1e3)
	r.set("web.transport_us", percentile(extra, 0.5)*1e3)
	ingest := 0.0
	if d.w.ingest {
		var times []time.Duration
		for n := 0; n < 5; n++ {
			body, err := d.ingestBody(1<<20 + n) // batch numbers no phase reaches
			if err != nil {
				return err
			}
			took, rec := serve("/api/ingest", body)
			if rec.Code != http.StatusOK {
				return fmt.Errorf("ingest handler: status %d: %s", rec.Code, rec.Body)
			}
			times = append(times, took)
		}
		ingest = percentile(times, 0.5) * 1e3
	}
	r.set("web.ingest_handler_us", ingest)
	return nil
}
