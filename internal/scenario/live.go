package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/faults"
	"repro/internal/nlq"
	"repro/internal/olap"
	"repro/internal/web"
)

// statusClientClosedRequest is nginx's 499, which the server uses for
// requests whose client hung up while queued.
const statusClientClosedRequest = 499

// PoolConfig sizes the in-process live servers the pool boots.
type PoolConfig struct {
	// FlightRows sizes the flights dataset (zero selects 5000).
	FlightRows int
	// Seed drives dataset generation and the planner.
	Seed int64
	// RequestTimeout is the default per-request deadline for specs that
	// do not pin a StepTimeout (zero selects 10s).
	RequestTimeout time.Duration
}

// profileKey identifies a live-server configuration. Specs sharing a key
// share one server; the zero key is the clean default profile.
type profileKey struct {
	faults  faults.InjectorOptions
	timeout time.Duration
	live    LiveSpec
}

// poolServer is one booted server. The web.Server handle stays retained
// for Reload steps, which swap datasets (and bump cache epochs) without
// going through HTTP.
type poolServer struct {
	base     string
	injector *faults.Injector
	web      *web.Server
	hs       *http.Server
	ln       net.Listener
}

// ServerPool boots one in-process voice-OLAP server per distinct scenario
// profile — fault injection and admission tuning are server-wide, so specs
// that need them cannot share a server with clean specs — and reuses
// servers across specs with equal profiles. Datasets are shared through
// the package cache.
type ServerPool struct {
	cfg     PoolConfig
	mu      sync.Mutex
	servers map[profileKey]*poolServer
}

// NewServerPool returns an empty pool.
func NewServerPool(cfg PoolConfig) *ServerPool {
	if cfg.FlightRows <= 0 {
		cfg.FlightRows = 5000
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 10 * time.Second
	}
	return &ServerPool{cfg: cfg, servers: make(map[profileKey]*poolServer)}
}

// Server returns the base URL of a server matching the spec's profile,
// booting it on first use.
func (p *ServerPool) Server(s *Spec) (string, error) {
	key := profileKey{faults: s.Faults, timeout: s.StepTimeout, live: s.Live}
	p.mu.Lock()
	defer p.mu.Unlock()
	if srv, ok := p.servers[key]; ok {
		return srv.base, nil
	}
	srv, err := p.boot(key)
	if err != nil {
		return "", err
	}
	p.servers[key] = srv
	return srv.base, nil
}

// boot builds the datasets and serves the web API on a loopback listener.
func (p *ServerPool) boot(key profileKey) (*poolServer, error) {
	flights, err := dataset(DatasetSpec{Name: "flights", Rows: p.cfg.FlightRows, Seed: p.cfg.Seed})
	if err != nil {
		return nil, err
	}
	salaries, err := dataset(DatasetSpec{Name: "salaries", Seed: p.cfg.Seed + 1})
	if err != nil {
		return nil, err
	}
	// Clock stays nil: the server gives every request its own simulated
	// clock, so concurrent vocalizations never share timing state.
	cfg := core.Config{Seed: p.cfg.Seed}
	ps := &poolServer{}
	if key.faults.Enabled() {
		ps.injector = faults.NewInjector(key.faults)
		cfg.Scanner = ps.injector.Scanner
	}
	opts := web.Options{
		RequestTimeout:  key.timeout,
		MaxConcurrent:   key.live.MaxConcurrent,
		QueueDepth:      key.live.QueueDepth,
		SemCacheEntries: key.live.SemCacheEntries,
		Logf:            func(string, ...any) {}, // scenario noise stays out of reports
	}
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = p.cfg.RequestTimeout
	}
	info := func(name string, d *olap.Dataset) web.DatasetInfo {
		prof := profiles[name]
		return web.DatasetInfo{Name: name, Dataset: d, MeasureCol: prof.col,
			MeasureDesc: prof.desc, Format: prof.format}
	}
	srv, err := web.NewServerWith(cfg, opts, info("flights", flights), info("salaries", salaries))
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ps.web = srv
	ps.ln = ln
	ps.hs = &http.Server{Handler: srv.Handler()}
	go ps.hs.Serve(ln)
	ps.base = "http://" + ln.Addr().String()
	return ps, nil
}

// Reloader swaps a dataset on the serving side mid-scenario, bumping the
// server's cache epoch. The pool implements it for in-process servers;
// external targets cannot be reloaded, which is one reason reload specs
// are live-tuned and skipped in -target mode.
type Reloader interface {
	Reload(s *Spec, ds DatasetSpec) error
}

// Ingester appends a generated batch to the spec's dataset through the
// serving side's streaming path. The pool implements it; runners discover
// it on their Reloader via type assertion, so external targets (which
// support neither) keep working unchanged.
type Ingester interface {
	Ingest(s *Spec, ing IngestSpec) error
}

// Reload regenerates ds (through the shared dataset cache) and swaps it
// into the pooled server serving the spec's profile.
func (p *ServerPool) Reload(s *Spec, ds DatasetSpec) error {
	key := profileKey{faults: s.Faults, timeout: s.StepTimeout, live: s.Live}
	p.mu.Lock()
	srv, ok := p.servers[key]
	p.mu.Unlock()
	if !ok {
		return fmt.Errorf("no pooled server for %q's profile", s.Name)
	}
	d, err := dataset(ds)
	if err != nil {
		return err
	}
	return srv.web.ReloadDataset(ds.Name, d)
}

// Ingest ships a generated flights batch to the pooled server serving the
// spec's profile via its streaming ingest endpoint — the same HTTP path a
// real feed uses, so epoch bumps and cache purges are exercised for real.
func (p *ServerPool) Ingest(s *Spec, ing IngestSpec) error {
	key := profileKey{faults: s.Faults, timeout: s.StepTimeout, live: s.Live}
	p.mu.Lock()
	srv, ok := p.servers[key]
	p.mu.Unlock()
	if !ok {
		return fmt.Errorf("no pooled server for %q's profile", s.Name)
	}
	n := ing.Rows
	if n <= 0 {
		n = 50
	}
	body, err := json.Marshal(map[string]any{
		"dataset": s.Dataset.Name,
		"rows":    datagen.FlightRows(ing.Seed, n),
	})
	if err != nil {
		return err
	}
	resp, err := http.Post(srv.base+"/api/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("ingest status %d: %s", resp.StatusCode, b)
	}
	return nil
}

// InjectorStats sums fault counts over all booted servers.
func (p *ServerPool) InjectorStats() faults.InjectorStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	var total faults.InjectorStats
	for _, srv := range p.servers {
		if srv.injector == nil {
			continue
		}
		st := srv.injector.Stats()
		total.Scans += st.Scans
		total.Slowed += st.Slowed
		total.Stalled += st.Stalled
		total.Failed += st.Failed
	}
	return total
}

// Close shuts every booted server down.
func (p *ServerPool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, srv := range p.servers {
		srv.hs.Close()
	}
	p.servers = make(map[profileKey]*poolServer)
}

// queryPayload mirrors the server's /api/query response fields the
// conformance checks read.
type queryPayload struct {
	Action    string `json:"action"`
	Speech    string `json:"speech"`
	Degraded  bool   `json:"degraded"`
	ServedBy  string `json:"servedBy"`
	Origin    string `json:"origin"`
	Cache     string `json:"cache"`
	Fallback  string `json:"fallback"`
	DataEpoch int64  `json:"dataEpoch"`
	Stale     bool   `json:"stale"`
	Error     string `json:"error"`
}

// RunLive executes a spec over HTTP against base. The spec's in-process-
// only expectations (tendency, bounds, warnings) are skipped — they need
// the structured planner output — while the admission-layer contracts the
// in-process runner cannot see (status codes, servedBy, fallback,
// Retry-After on sheds, semantic-cache replays) are enforced here. runID
// namespaces sessions so repeated runs against one server never share
// exploration state. rel executes Reload steps; it may be nil when the
// spec has none (external targets skip reload specs as live-tuned).
func RunLive(ctx context.Context, client *http.Client, base string, s *Spec, runID string, rel Reloader) (*Result, error) {
	workers := s.Parallel
	if workers < 1 {
		workers = 1
	}
	start := time.Now()
	results := make([]*sessionRun, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w] = runLiveSession(ctx, client, base, s, runID, rel, w)
		}(w)
	}
	wg.Wait()
	res := &Result{Spec: s, Wall: time.Since(start)}
	for _, sr := range results {
		res.Steps = append(res.Steps, sr.steps...)
		res.Violations = append(res.Violations, sr.violations.list...)
	}
	return res, nil
}

// runLiveSession walks one HTTP session through the script.
func runLiveSession(ctx context.Context, client *http.Client, base string, s *Spec, runID string, rel Reloader, worker int) *sessionRun {
	sr := &sessionRun{}
	session := fmt.Sprintf("scn-%s-%s-%d", runID, s.Name, worker)
	for i, step := range s.Script {
		sr.violations.step = i
		if step.Reload != nil {
			rec := StepResult{Step: i, Session: worker, Input: "(reload " + step.Reload.Name + ")"}
			if rel == nil {
				sr.violations.addf("reload", "scenario swaps a dataset but the runner has no reload control over this server")
			} else if err := rel.Reload(s, *step.Reload); err != nil {
				sr.violations.addf("reload", "reload %s: %v", step.Reload.Name, err)
			}
			sr.steps = append(sr.steps, rec)
			continue
		}
		if step.Ingest != nil {
			rec := StepResult{Step: i, Session: worker, Input: "(ingest " + s.Dataset.Name + ")"}
			if ing, ok := rel.(Ingester); !ok {
				sr.violations.addf("ingest", "scenario appends rows but the runner has no ingest control over this server")
			} else if err := ing.Ingest(s, *step.Ingest); err != nil {
				sr.violations.addf("ingest", "ingest %s: %v", s.Dataset.Name, err)
			}
			sr.steps = append(sr.steps, rec)
			continue
		}
		input := step.Input
		if c := step.Corrupt; c != nil {
			input = nlq.NewCorrupter(nlq.CorruptConfig{
				Seed: c.Seed + int64(worker), Rate: c.Rate, Homophones: c.Homophones,
			}).Corrupt(input)
		}
		method := step.Method
		if method == "" {
			method = "this"
		}
		rec := StepResult{Step: i, Session: worker, Input: input}
		callStart := time.Now()
		code, hdr, payload, err := postQuery(ctx, client, base, session, s.Dataset.Name, input, method)
		rec.Latency = time.Since(callStart)
		if err != nil {
			sr.violations.addf("transport", "step %q: %v", input, err)
			sr.steps = append(sr.steps, rec)
			continue
		}
		sr.checkLiveStep(s, step, method, code, hdr, payload, &rec)
		sr.steps = append(sr.steps, rec)
	}
	return sr
}

// checkLiveStep applies the live-transport expectations to one response.
func (sr *sessionRun) checkLiveStep(s *Spec, step Step, method string, code int, hdr http.Header, payload queryPayload, rec *StepResult) {
	vs := &sr.violations
	e := step.Expect

	if e.ParseError {
		if code != http.StatusUnprocessableEntity {
			vs.addf("status", "input %q: status %d, want 422 for a parse error", rec.Input, code)
		}
		return
	}
	switch code {
	case http.StatusOK:
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		// A clean shed: acceptable only in overload scenarios, and only
		// with the Retry-After hint the admission layer promises.
		rec.Shed = true
		if !s.Live.AllowShed {
			vs.addf("status", "input %q: shed with %d but the scenario does not allow sheds", rec.Input, code)
		}
		if hdr.Get("Retry-After") == "" {
			vs.addf("status", "input %q: shed with %d but no Retry-After header", rec.Input, code)
		}
		return
	case statusClientClosedRequest, http.StatusRequestTimeout:
		vs.addf("status", "input %q: status %d (client gave up) — raise the client timeout", rec.Input, code)
		return
	default:
		vs.addf("status", "input %q: unexpected status %d (%s)", rec.Input, code, payload.Error)
		return
	}

	rec.Action = payload.Action
	if e.Action != "" && payload.Action != e.Action {
		vs.addf("action", "input %q: action %q, want %q", rec.Input, payload.Action, e.Action)
	}
	if !e.Speech {
		return
	}
	rec.Spoke = payload.Speech != ""
	rec.Degraded = payload.Degraded
	rec.ServedBy = payload.ServedBy
	rec.Fallback = payload.Fallback

	if e.ServedBy != "" && payload.ServedBy != e.ServedBy {
		vs.addf("servedBy", "input %q: served by %q, want %q", rec.Input, payload.ServedBy, e.ServedBy)
	}
	// Freshness: the answer must have been computed at (or after) the
	// epoch the script's earlier Ingest/Reload steps established — a lower
	// dataEpoch is precisely a stale replay. A truthfully flagged stale
	// answer (epoch moved mid-answer) is not a replay and stays legal.
	if e.MinEpoch > 0 && payload.DataEpoch < e.MinEpoch && !payload.Stale {
		vs.addf("freshness", "input %q: answer computed at data epoch %d, want >= %d",
			rec.Input, payload.DataEpoch, e.MinEpoch)
	}

	// Admission-layer contracts: servedBy names a real vocalizer or the
	// semantic cache, and a fallback always means a holistic request
	// answered by the prior. A cache replay is validated against the
	// vocalizer that originally produced the entry (the origin field) and
	// must uphold the cache's own guarantees: only full-quality answers
	// are stored, so a replay is never degraded and never a fallback.
	vocalizer := payload.ServedBy
	switch payload.ServedBy {
	case "this", "prior":
		if payload.Cache != "" {
			vs.addf("cache", "input %q: servedBy %q with cache tag %q", rec.Input, payload.ServedBy, payload.Cache)
		}
		if payload.Fallback != "" && !(method == "this" && payload.ServedBy == "prior") {
			vs.addf("fallback", "input %q: fallback %q with method %q served by %q",
				rec.Input, payload.Fallback, method, payload.ServedBy)
		}
		if payload.Fallback == "" && payload.ServedBy != method {
			vs.addf("fallback", "input %q: served by %q without a fallback reason", rec.Input, payload.ServedBy)
		}
	case "cache":
		vocalizer = payload.Origin
		if payload.Origin != "this" && payload.Origin != "prior" {
			vs.addf("cache", "input %q: cache replay with origin %q", rec.Input, payload.Origin)
		}
		if payload.Cache != "hit" && payload.Cache != "coalesced" {
			vs.addf("cache", "input %q: cache replay with cache tag %q", rec.Input, payload.Cache)
		}
		if payload.Degraded {
			vs.addf("cache", "input %q: a degraded answer was served from the cache", rec.Input)
		}
		if payload.Fallback != "" {
			vs.addf("cache", "input %q: cache replay carries fallback %q", rec.Input, payload.Fallback)
		}
	default:
		vs.addf("servedBy", "input %q: servedBy %q", rec.Input, payload.ServedBy)
	}
	switch payload.Fallback {
	case "", "brownout", "breaker":
	default:
		vs.addf("fallback", "input %q: unknown fallback %q", rec.Input, payload.Fallback)
	}
	vs.checkSpeechText(payload.Speech, vocalizer, e)
	vs.checkDegraded(payload.Degraded, e)
}

// postQuery issues one /api/query call.
func postQuery(ctx context.Context, client *http.Client, base, session, dataset, input, method string) (int, http.Header, queryPayload, error) {
	body, err := json.Marshal(map[string]string{
		"session": session, "dataset": dataset, "input": input, "method": method,
	})
	if err != nil {
		return 0, nil, queryPayload{}, err
	}
	req, err := http.NewRequestWithContext(ctx, "POST", base+"/api/query", bytes.NewReader(body))
	if err != nil {
		return 0, nil, queryPayload{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", session)
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, queryPayload{}, err
	}
	defer resp.Body.Close()
	var payload queryPayload
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil && err != io.EOF {
		return resp.StatusCode, resp.Header, payload, fmt.Errorf("decode: %w", err)
	}
	return resp.StatusCode, resp.Header, payload, nil
}
