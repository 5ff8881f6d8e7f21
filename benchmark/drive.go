package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/datagen"
	"repro/internal/encode"
	"repro/internal/speech"
	"repro/internal/web"
)

const (
	// ingestEvery is the number of answers between two ingest batches and
	// ingestRows the rows per batch.
	ingestEvery = 10
	ingestRows  = 256
	// tenant is sent as X-Tenant, as cmd/loadgen does: without it the
	// server books every session as its own tenant.
	tenant = "bench"
)

// reply is the part of the /api/query response the generator checks.
type reply struct {
	Action     string          `json:"action"`
	Message    string          `json:"message"`
	Speech     string          `json:"speech"`
	Degraded   bool            `json:"degraded"`
	Structured json.RawMessage `json:"structured"`
	ServedBy   string          `json:"servedBy"`
	Origin     string          `json:"origin"`
	Fallback   string          `json:"fallback"`
	DataEpoch  int64           `json:"dataEpoch"`
	Error      string          `json:"error"`
}

// heard is one distinct answer of a run: the query it must be scored
// against, the structured speech as sent, and how often it was heard.
type heard struct {
	req        request
	structured string
	count      int
}

// clientRun accumulates what one client goroutine saw during a phase.
type clientRun struct {
	attempted, failed int
	// latencies of correct speech answers, all and split by cache outcome,
	// and for each entry of all the time the answer completed.
	all, hit, miss []time.Duration
	doneAt         []time.Time
	// clientTime is the time spent encoding requests and decoding and
	// checking replies: the generator's own cost per operation.
	clientTime time.Duration
	// heard is keyed by canonical query and structured speech. A reply
	// already in it has passed the grammar and decode checks.
	heard map[string]*heard
	// failures keeps the first few failure reasons for the report.
	failures []string
}

func (c *clientRun) fail(format string, args ...any) {
	c.failed++
	if len(c.failures) < 5 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// driver sends one workload's requests to a booted target.
type driver struct {
	w      workload
	t      *target
	client *http.Client
	seed   int64
	// known is the highest ingest epoch acknowledged so far; an answer
	// sent after that must be computed at or above it.
	known atomic.Int64
}

func newDriver(w workload, t *target, seed int64) *driver {
	conns := w.clients
	if w.ingest {
		conns++
	}
	return &driver{w: w, t: t, seed: seed, client: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
		},
	}}
}

func (d *driver) close() { d.client.CloseIdleConnections() }

// post sends body to path and returns the status and the whole reply body.
func (d *driver) post(path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, d.t.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", tenant)
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// ask sends one query request and checks the reply against the mirror.
// The latency runs from just before the POST until the reply is decoded.
// While warming, the first answer of each query is the miss that fills
// the cache, so allHits is not enforced.
func (d *driver) ask(c *clientRun, r request, session string, warming bool) {
	c.attempted++
	t0 := time.Now()
	body, err := json.Marshal(map[string]string{
		"session": session, "dataset": "flights", "input": r.Input, "method": "this",
	})
	if err != nil {
		c.fail("encode request: %v", err)
		return
	}
	wantEpoch := d.known.Load()
	sent := time.Now()
	status, raw, err := d.post("/api/query", body)
	if err != nil {
		c.fail("%q: %v", r.Input, err)
		return
	}
	received := time.Now()
	var rep reply
	err = json.Unmarshal(raw, &rep)
	done := time.Now()
	latency := done.Sub(sent)
	defer func() { c.clientTime += sent.Sub(t0) + time.Since(received) }()

	switch {
	case err != nil:
		c.fail("%q: undecodable reply: %v", r.Input, err)
	case status != http.StatusOK:
		c.fail("%q: status %d: %s", r.Input, status, rep.Error)
	case rep.Action != r.Action || rep.Message != r.Message:
		c.fail("%q: action %q and state %q, mirror expects %q and %q", r.Input, rep.Action, rep.Message, r.Action, r.Message)
	case !r.Answer:
		if rep.Speech != "" {
			c.fail("%q: speech for a turn the mirror does not vocalize", r.Input)
		}
	case rep.Speech == "" || rep.Degraded:
		c.fail("%q: empty or degraded speech", r.Input)
	case rep.Fallback != "" || rep.ServedBy != "this" && rep.ServedBy != "cache" ||
		rep.ServedBy == "cache" && (rep.Origin != "this" || d.w.cacheOff) ||
		rep.ServedBy == "this" && d.w.allHits && !warming:
		c.fail("%q: served by %q (origin %q, fallback %q)", r.Input, rep.ServedBy, rep.Origin, rep.Fallback)
	case rep.DataEpoch < wantEpoch:
		c.fail("%q: answer at epoch %d, ingest epoch %d was acknowledged before it was sent", r.Input, rep.DataEpoch, wantEpoch)
	default:
		key := r.Key + "\x00" + string(rep.Structured)
		h := c.heard[key]
		if h == nil {
			if err := d.checkSpeech(rep); err != nil {
				c.fail("%q: %v", r.Input, err)
				return
			}
			h = &heard{req: r, structured: string(rep.Structured)}
			c.heard[key] = h
		}
		h.count++
		c.all = append(c.all, latency)
		c.doneAt = append(c.doneAt, done)
		if rep.ServedBy == "cache" {
			c.hit = append(c.hit, latency)
		} else {
			c.miss = append(c.miss, latency)
		}
	}
}

// checkSpeech validates a speech the run has not heard before: the text
// conforms to the grammar, and the structured form decodes against the
// dataset and renders the same text.
func (d *driver) checkSpeech(rep reply) error {
	if !(speech.Parser{}).Conforms(rep.Speech) {
		return fmt.Errorf("speech outside the grammar: %q", rep.Speech)
	}
	var enc encode.Speech
	if err := json.Unmarshal(rep.Structured, &enc); err != nil {
		return fmt.Errorf("structured speech: %w", err)
	}
	if _, err := encode.DecodeSpeech(d.t.flights, enc); err != nil {
		return fmt.Errorf("structured speech: %w", err)
	}
	if enc.Text != rep.Speech {
		return fmt.Errorf("structured text %q differs from speech %q", enc.Text, rep.Speech)
	}
	return nil
}

// ingestRun is what the ingest client saw during a phase.
type ingestRun struct {
	attempted, failed int
	latencies         []time.Duration
	lateness          []time.Duration
	clientTime        time.Duration
	failures          []string
}

// ingestBody encodes batch number n of this seed.
func (d *driver) ingestBody(n int) ([]byte, error) {
	rows := datagen.FlightRows(d.seed<<32+int64(n), ingestRows)
	return json.Marshal(map[string]any{"dataset": "flights", "rows": rows})
}

// ingestOne posts one batch and records the acknowledged epoch.
func (d *driver) ingestOne(out *ingestRun, body []byte) {
	out.attempted++
	sent := time.Now()
	status, raw, err := d.post("/api/ingest", body)
	received := time.Now()
	var ack struct {
		Appended int   `json:"appended"`
		Epoch    int64 `json:"epoch"`
	}
	if err == nil {
		err = json.Unmarshal(raw, &ack)
	}
	done := time.Now()
	out.clientTime += done.Sub(received)
	if err != nil || status != http.StatusOK || ack.Appended != ingestRows {
		out.failed++
		if len(out.failures) < 5 {
			out.failures = append(out.failures, fmt.Sprintf("ingest: status %d, appended %d, err %v", status, ack.Appended, err))
		}
		return
	}
	out.latencies = append(out.latencies, done.Sub(sent))
	d.known.Store(ack.Epoch) // the one ingest client is the only writer, and epochs only grow
}

// ingester posts one batch per signal until signals is closed, numbering
// them from 1 (batch 0 is the warm-up's). The next batch is encoded before
// waiting, so lateness measures only how long a due batch waited for the
// client.
func (d *driver) ingester(signals <-chan time.Time) *ingestRun {
	out := &ingestRun{}
	for n := 1; ; n++ {
		t0 := time.Now()
		body, err := d.ingestBody(n)
		out.clientTime += time.Since(t0)
		if err != nil {
			out.failed++
			out.failures = append(out.failures, err.Error())
			return out
		}
		due, ok := <-signals
		if !ok {
			return out
		}
		out.lateness = append(out.lateness, time.Since(due))
		d.ingestOne(out, body)
	}
}

// counters is one reading of what the server and the Go runtime publish.
type counters struct {
	stats      web.LogAnalysis
	stale      float64
	mutexWait  float64
	gcPause    time.Duration
	mallocs    uint64
	allocBytes uint64
	cpu        time.Duration
}

// readCounters fetches /api/stats and /metrics and reads the runtime.
func (d *driver) readCounters() (counters, error) {
	var c counters
	resp, err := d.client.Get(d.t.base + "/api/stats")
	if err != nil {
		return c, err
	}
	err = json.NewDecoder(resp.Body).Decode(&c.stats)
	resp.Body.Close()
	if err != nil {
		return c, fmt.Errorf("/api/stats: %w", err)
	}
	resp, err = d.client.Get(d.t.base + "/metrics")
	if err != nil {
		return c, err
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "voiceolap_stale_answers_total "); ok {
			c.stale, _ = strconv.ParseFloat(v, 64) // a malformed line reads as 0
		}
	}
	resp.Body.Close()
	if err := sc.Err(); err != nil {
		return c, fmt.Errorf("/metrics: %w", err)
	}
	sample := []metrics.Sample{{Name: "/sync/mutex/wait/total:seconds"}}
	metrics.Read(sample)
	c.mutexWait = sample[0].Value.Float64()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	c.gcPause = time.Duration(mem.PauseTotalNs)
	c.mallocs = mem.Mallocs
	c.allocBytes = mem.TotalAlloc
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return c, err
	}
	c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return c, nil
}

// heapSampler records the maximum heap in use every 100 ms until stopped.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		// Objects plus unused spans is runtime.MemStats.HeapInuse, read
		// without stopping the world.
		sample := []metrics.Sample{
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/memory/classes/heap/unused:bytes"},
		}
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64() + sample[1].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// peakMB stops the sampler and returns the peak in MiB.
func (h *heapSampler) peakMB() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// phaseResult is everything one driven phase produced.
type phaseResult struct {
	clients []*clientRun
	ingest  *ingestRun
	// start is when the first request was sent, busy the time until the
	// first client found no session left: the window in which every
	// client was sending, which throughput and latencies are taken over so
	// that the tail where one client works alone does not count.
	start          time.Time
	busy           time.Duration
	heapPeakMB     float64
	before, after  counters
	droppedSignals int
	// gaveUp is set when the phase stopped before every session was sent.
	gaveUp atomic.Bool
}

// phase sends the sessions from the workload's client goroutines, each
// taking the next unsent session when it finishes one, until all are sent
// or giveUp has passed, which bounds the run when the program or the
// machine is slower than the session count was sized for. Clients are
// closed loops: the next request waits for the reply.
func (d *driver) phase(sessions []session, giveUp time.Duration) (*phaseResult, error) {
	res := &phaseResult{clients: make([]*clientRun, d.w.clients)}
	var err error
	if res.before, err = d.readCounters(); err != nil {
		return nil, err
	}
	heap := startHeapSampler()
	var signals chan time.Time
	var ingestDone chan *ingestRun
	if d.w.ingest {
		// Up to 16 batches may be due at once before the run counts a
		// dropped signal as a failure: ten answers take far longer than
		// one ingest, so a backlog means the generator cannot keep pace.
		signals = make(chan time.Time, 16)
		ingestDone = make(chan *ingestRun, 1)
		go func() { ingestDone <- d.ingester(signals) }()
	}
	res.start = time.Now()
	idle := make([]time.Duration, d.w.clients)
	var wg sync.WaitGroup
	var next, dropped atomic.Int64
	for ci := range res.clients {
		c := &clientRun{heard: map[string]*heard{}}
		res.clients[ci] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { idle[ci] = time.Since(res.start) }()
			for time.Since(res.start) < giveUp {
				i := int(next.Add(1)) - 1
				if i >= len(sessions) {
					return
				}
				for _, r := range sessions[i] {
					before := len(c.all)
					d.ask(c, r, r.Session, false)
					if signals != nil && len(c.all) > before && len(c.all)%ingestEvery == 0 {
						select {
						case signals <- time.Now():
						default:
							dropped.Add(1)
						}
					}
				}
			}
			res.gaveUp.Store(true)
		}()
	}
	wg.Wait()
	res.busy = idle[0]
	for _, t := range idle {
		res.busy = min(res.busy, t)
	}
	if signals != nil {
		close(signals)
		res.ingest = <-ingestDone
		res.droppedSignals = int(dropped.Load())
	}
	res.heapPeakMB = heap.peakMB()
	if res.after, err = d.readCounters(); err != nil {
		return nil, err
	}
	return res, nil
}

// warm brings the server to its steady state before anything is timed.
// With caches on it sends every session that holds a query not yet seen,
// so the measured phase starts with a full answer cache; with caches off
// nothing is kept between answers, and the first script alone is enough
// to grow the heap and fill the pools, whatever the seed. On an ingest
// workload it first sends one batch, so the server's copy-on-first-ingest
// is paid here. It ends with a forced GC.
func (d *driver) warm(sessions []session) error {
	if d.w.ingest {
		body, err := d.ingestBody(0)
		if err != nil {
			return err
		}
		var out ingestRun
		if d.ingestOne(&out, body); out.failed > 0 {
			return fmt.Errorf("warm-up %s", out.failures[0])
		}
	}
	if d.w.cacheOff {
		first, err := scriptSession(d.w.scripts[0], d.t.flights, nil)
		if err != nil {
			return err
		}
		sessions = []session{first}
	}
	c := &clientRun{heard: map[string]*heard{}}
	seen := map[string]bool{}
	for i, sess := range sessions {
		fresh := false
		for _, r := range sess {
			if r.Answer && !seen[r.Key] {
				seen[r.Key], fresh = true, true
			}
		}
		if fresh {
			for _, r := range sess {
				d.ask(c, r, fmt.Sprintf("warm-%d", i), true)
			}
		}
	}
	if c.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d requests failed, first: %s", c.failed, c.attempted, c.failures[0])
	}
	runtime.GC()
	return nil
}

// percentile returns the q-quantile (nearest rank) of the durations in
// milliseconds, 0 for none. It sorts d.
func percentile(d []time.Duration, q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	i := int(q*float64(len(d))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(d) {
		i = len(d) - 1
	}
	return float64(d[i]) / float64(time.Millisecond)
}
