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

	"repro/internal/datagen"
	"repro/internal/faults"
	"repro/internal/olap"
	"repro/internal/web"
)

// statusClientClosedRequest is nginx's 499, which the server uses for
// requests whose client hung up before the answer was ready.
const statusClientClosedRequest = 499

// profileKey identifies a live-server configuration. Specs sharing a key
// share one server; the zero key is the clean default profile.
type profileKey struct {
	faults  faults.InjectorOptions
	timeout time.Duration
	live    LiveSpec
}

// poolServer is one booted server.
type poolServer struct {
	base string
	hs   *http.Server
}

// ServerPool boots one in-process voice-OLAP server per distinct scenario
// profile — fault injection and admission tuning are server-wide, so specs
// that need them cannot share a server with clean specs — and reuses
// servers across specs with equal profiles. Datasets are shared through
// the package cache.
type ServerPool struct {
	mu      sync.Mutex
	servers map[profileKey]*poolServer
}

// NewServerPool returns an empty pool.
func NewServerPool() *ServerPool {
	return &ServerPool{servers: make(map[profileKey]*poolServer)}
}

// server returns the server matching the spec's profile, booting it on
// first use.
func (p *ServerPool) server(s *Spec) (*poolServer, error) {
	key := profileKey{faults: s.Faults, timeout: s.StepTimeout, live: s.Live}
	p.mu.Lock()
	defer p.mu.Unlock()
	if srv, ok := p.servers[key]; ok {
		return srv, nil
	}
	srv, err := boot(key)
	if err != nil {
		return nil, err
	}
	p.servers[key] = srv
	return srv, nil
}

// boot builds the datasets and serves the web API on a loopback listener.
func boot(key profileKey) (*poolServer, error) {
	// The specs' own datasets, so the in-process runner and the live one
	// share the cached tables.
	flights, err := dataset(flights5k)
	if err != nil {
		return nil, err
	}
	salaries, err := dataset(salariesStd)
	if err != nil {
		return nil, err
	}
	// The in-process runner's configuration for a spec without Planner
	// overrides, which every spec on this server shares. The server gives
	// every request its own simulated clock, so concurrent vocalizations
	// never share timing state.
	var inj *faults.Injector
	if key.faults.Enabled() {
		inj = faults.NewInjector(key.faults)
	}
	cfg := plannerConfig(&Spec{}, inj)
	opts := web.Options{
		RequestTimeout:  key.timeout,
		MaxConcurrent:   key.live.MaxConcurrent,
		SemCacheEntries: key.live.SemCacheEntries,
		Logf:            func(string, ...any) {}, // scenario noise stays out of test output
	}
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = 10 * time.Second // specs that pin no StepTimeout
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
	ps := &poolServer{base: "http://" + ln.Addr().String(), hs: &http.Server{Handler: srv.Handler()}}
	go ps.hs.Serve(ln)
	return ps, nil
}

// ingest ships a generated flights batch to the server's streaming ingest
// endpoint — the same HTTP path a real feed uses, so epoch bumps and cache
// purges are exercised for real.
func (ps *poolServer) ingest(dataset string, ing IngestSpec) error {
	n := ing.Rows
	if n <= 0 {
		n = 50
	}
	body, err := json.Marshal(map[string]any{
		"dataset": dataset,
		"rows":    datagen.FlightRows(ing.Seed, n),
	})
	if err != nil {
		return err
	}
	resp, err := http.Post(ps.base+"/api/ingest", "application/json", bytes.NewReader(body))
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
	DataEpoch int64  `json:"dataEpoch"`
	Stale     bool   `json:"stale"`
	Error     string `json:"error"`
}

// RunLive executes a spec over HTTP against the pool's server for the
// spec's profile and returns its violations. The spec's in-process-only
// expectations (tendency, bounds, warnings) are skipped — they need the
// structured planner output — while the admission-layer contracts the
// in-process runner cannot see (status codes, servedBy, Retry-After on
// sheds, semantic-cache replays) are enforced here.
func RunLive(ctx context.Context, client *http.Client, pool *ServerPool, s *Spec) ([]Violation, error) {
	srv, err := pool.server(s)
	if err != nil {
		return nil, err
	}
	return perSession(s, func(worker int) []Violation {
		return runLiveSession(ctx, client, srv, s, worker)
	}), nil
}

// runLiveSession walks one HTTP session through the script.
func runLiveSession(ctx context.Context, client *http.Client, srv *poolServer, s *Spec, worker int) []Violation {
	var vs violations
	session := fmt.Sprintf("scn-%s-%d", s.Name, worker)
	for i, step := range s.Script {
		vs.step = i
		if step.Ingest != nil {
			if err := srv.ingest(s.Dataset.Name, *step.Ingest); err != nil {
				vs.addf("ingest", "ingest %s: %v", s.Dataset.Name, err)
			}
			continue
		}
		input, method := step.input(worker), step.method()
		code, hdr, payload, err := postQuery(ctx, client, srv.base, session, s.Dataset.Name, input, method)
		if err != nil {
			vs.addf("transport", "step %q: %v", input, err)
			continue
		}
		vs.checkLiveStep(s, step, input, method, code, hdr, payload)
	}
	return vs.list
}

// checkLiveStep applies the live-transport expectations to one response.
func (vs *violations) checkLiveStep(s *Spec, step Step, input, method string, code int, hdr http.Header, payload queryPayload) {
	e := step.Expect

	if e.ParseError {
		if code != http.StatusUnprocessableEntity {
			vs.addf("status", "input %q: status %d, want 422 for a parse error", input, code)
		}
		return
	}
	switch code {
	case http.StatusOK:
	case http.StatusServiceUnavailable:
		// A clean shed: acceptable only in overload scenarios, and only
		// with the Retry-After hint the admission layer promises.
		if !s.Live.AllowShed {
			vs.addf("status", "input %q: shed with %d but the scenario does not allow sheds", input, code)
		}
		if hdr.Get("Retry-After") == "" {
			vs.addf("status", "input %q: shed with %d but no Retry-After header", input, code)
		}
		return
	case statusClientClosedRequest, http.StatusRequestTimeout:
		vs.addf("status", "input %q: status %d (client gave up) — raise the client timeout", input, code)
		return
	default:
		vs.addf("status", "input %q: unexpected status %d (%s)", input, code, payload.Error)
		return
	}

	if e.Action != "" && payload.Action != e.Action {
		vs.addf("action", "input %q: action %q, want %q", input, payload.Action, e.Action)
	}
	if !e.Speech {
		return
	}

	if e.ServedBy != "" && payload.ServedBy != e.ServedBy {
		vs.addf("servedBy", "input %q: served by %q, want %q", input, payload.ServedBy, e.ServedBy)
	}
	// Freshness: the answer must have been computed at (or after) the
	// epoch the script's earlier Ingest steps established — a lower
	// dataEpoch is precisely a stale replay. A truthfully flagged stale
	// answer (epoch moved mid-answer) is not a replay and stays legal.
	if e.MinEpoch > 0 && payload.DataEpoch < e.MinEpoch && !payload.Stale {
		vs.addf("freshness", "input %q: answer computed at data epoch %d, want >= %d",
			input, payload.DataEpoch, e.MinEpoch)
	}

	// Serving contracts: servedBy is the requested vocalizer or the
	// semantic cache. A cache replay is validated against the vocalizer
	// that originally produced the entry (the origin field) and must
	// uphold the cache's own guarantee: a deadline-degraded answer is
	// never stored, so a replay is never degraded.
	vocalizer := payload.ServedBy
	switch payload.ServedBy {
	case method:
		if payload.Cache != "" {
			vs.addf("cache", "input %q: servedBy %q with cache tag %q", input, payload.ServedBy, payload.Cache)
		}
	case "cache":
		vocalizer = payload.Origin
		if payload.Origin != "this" && payload.Origin != "prior" {
			vs.addf("cache", "input %q: cache replay with origin %q", input, payload.Origin)
		}
		if payload.Cache != "hit" && payload.Cache != "coalesced" {
			vs.addf("cache", "input %q: cache replay with cache tag %q", input, payload.Cache)
		}
		if payload.Degraded {
			vs.addf("cache", "input %q: a degraded answer was served from the cache", input)
		}
	default:
		vs.addf("servedBy", "input %q: served by %q, want %q or \"cache\"", input, payload.ServedBy, method)
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
