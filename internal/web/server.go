// Package web exposes the voice-OLAP system over HTTP, mirroring the
// paper's crowd-study interface: clients submit keyword commands per
// session, choose between the holistic vocalizer and the prior baseline
// for every single query, and receive the speech text (a browser would
// hand it to a TTS API). Queries are logged server-side as in the study.
//
// The server is hardened for sustained multi-tenant traffic: every
// request runs under a deadline (vocalizers degrade rather than hang),
// panics become 500s, the query log is a fixed-capacity ring, and idle
// sessions are evicted by TTL and LRU. Overload is governed by the
// internal/admission layer: a fixed number of vocalization slots. A
// request that finds every slot busy receives 503 with a one-second
// Retry-After. A request whose client hung up before its reply was written
// gets 499 and no log entry; one whose deadline passed while it waited on
// an identical query's plan gets 408. Each query's outcome is booked once,
// by the code that writes its reply: respondSpeech, admit or writeAborted.
package web

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/encode"
	"repro/internal/nlq"
	"repro/internal/olap"
	"repro/internal/semcache"
	"repro/internal/speech"
)

// DatasetInfo registers one dataset with its spoken measure.
type DatasetInfo struct {
	// Name is the public dataset identifier ("flights", "salaries").
	Name string
	// Dataset is the bound data.
	Dataset *olap.Dataset
	// MeasureCol is the measure column vocalized by default.
	MeasureCol string
	// MeasureDesc is its spoken description.
	MeasureDesc string
	// Format renders measure values.
	Format speech.ValueFormat
}

// QueryLogEntry records one vocalized query, as the paper's server did.
type QueryLogEntry struct {
	Time      time.Time `json:"time"`
	Session   string    `json:"session"`
	Dataset   string    `json:"dataset"`
	Input     string    `json:"input"`
	Method    string    `json:"method"`
	Speech    string    `json:"speech"`
	LatencyMS float64   `json:"latencyMs"`
	// Degraded marks answers cut short by the request deadline.
	Degraded bool `json:"degraded,omitempty"`
	// ServedBy is the vocalizer that answered: Method itself, or "cache"
	// for replayed answers.
	ServedBy string `json:"servedBy,omitempty"`
	// Origin names the vocalizer that originally produced a cache-served
	// speech.
	Origin string `json:"origin,omitempty"`
	// Cache classifies the semantic-cache path ("hit", "coalesced"); empty
	// for cold answers.
	Cache string `json:"cache,omitempty"`
	// DataEpoch is the dataset epoch the answer was computed against.
	DataEpoch int64 `json:"dataEpoch"`
	// Stale marks answers whose epoch advanced before the reply was
	// written (rows were ingested mid-answer).
	Stale bool `json:"stale,omitempty"`
}

// Options tunes the server's robustness knobs. The zero value selects the
// defaults noted per field.
type Options struct {
	// RequestTimeout bounds each request via its context (default 30s;
	// negative disables). Vocalizers degrade at the deadline, so the
	// response still carries a partial answer.
	RequestTimeout time.Duration
	// MaxBodyBytes caps the /api/query request body (default 64 KiB).
	MaxBodyBytes int64
	// MaxConcurrent bounds concurrent vocalizations; requests beyond it
	// receive 503 with a Retry-After hint (default 32).
	MaxConcurrent int
	// BrownoutWindow is read by nothing: there is no brownout ladder. It
	// stays because benchmark/server.go:40 sets it; ROADMAP item 1a(i)
	// removes it.
	BrownoutWindow int
	// BrownoutHold is read by nothing. It stays because
	// benchmark/server.go:41 sets it; ROADMAP item 1a(i) removes it.
	BrownoutHold time.Duration
	// BreakerCooldown is read by nothing: there is no circuit breaker. It
	// stays because benchmark/server.go:42 sets it; ROADMAP item 1a(i)
	// removes it.
	BreakerCooldown time.Duration
	// LogCap is the query-log ring capacity; the oldest entries are
	// dropped beyond it (default 10000).
	LogCap int
	// MaxSessions caps live sessions; the least recently used is evicted
	// beyond it (default 1024).
	MaxSessions int
	// SessionTTL evicts sessions idle longer than this (default 1h).
	SessionTTL time.Duration
	// SemCacheEntries caps the semantic answer cache: finished
	// full-quality speeches memoized by (dataset epoch, canonical query)
	// and replayed bit-identically for equivalent queries (default 1024;
	// negative disables the semantic cache).
	SemCacheEntries int
	// SemCacheViews is read by nothing: there is no second cache tier. It
	// stays because benchmark/server.go:47 sets it; ROADMAP item 1 removes
	// both.
	SemCacheViews int
	// PoolSize is read by nothing: a new session is built when it is first
	// used. It stays because benchmark/server.go:48 sets it; ROADMAP item 1
	// removes both.
	PoolSize int
	// Logf receives operational messages such as panic stacks (default
	// log.Printf).
	Logf func(format string, args ...any)
}

// normalize fills unset options with their defaults.
func (o Options) normalize() Options {
	if o.RequestTimeout == 0 {
		o.RequestTimeout = 30 * time.Second
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 64 << 10
	}
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = 32
	}
	if o.LogCap <= 0 {
		o.LogCap = 10000
	}
	if o.MaxSessions <= 0 {
		o.MaxSessions = 1024
	}
	if o.SessionTTL <= 0 {
		o.SessionTTL = time.Hour
	}
	if o.SemCacheEntries == 0 {
		o.SemCacheEntries = 1024
	}
	if o.Logf == nil {
		o.Logf = log.Printf
	}
	return o
}

// errInternal hides internal error details from clients; the real error
// goes to the operational log.
var errInternal = errors.New("internal server error")

// queryLog is a fixed-capacity ring holding the newest entries; the study
// server must survive unbounded query streams with bounded memory.
type queryLog struct {
	cap     int
	entries []QueryLogEntry
	next    int
}

// add appends e, overwriting the oldest entry once the ring is full.
func (l *queryLog) add(e QueryLogEntry) {
	if len(l.entries) < l.cap {
		l.entries = append(l.entries, e)
		return
	}
	l.entries[l.next] = e
	l.next = (l.next + 1) % l.cap
}

// snapshot copies the entries in chronological order.
func (l *queryLog) snapshot() []QueryLogEntry {
	out := make([]QueryLogEntry, 0, len(l.entries))
	out = append(out, l.entries[l.next:]...)
	out = append(out, l.entries[:l.next]...)
	return out
}

// sessionEntry is one row of the session table. The session it points to
// is published: nothing calls Parse on it again. A command runs on a clone
// and commit replaces the pointer, so whoever read sess under s.mu may keep
// reading it after the lock is gone.
type sessionEntry struct {
	key      string
	sess     *nlq.Session
	lastUsed time.Time
}

// Server serves the voice-OLAP API.
type Server struct {
	mu       sync.Mutex
	datasets map[string]*datasetState
	order    []string
	// sessions maps "session\x00dataset" to its element in recency, which
	// lists the *sessionEntry rows most recently used first: the session
	// idle longest — the TTL's victim and the LRU's alike — is at the back.
	sessions map[string]*list.Element
	recency  *list.List
	log      queryLog
	cfg      core.Config
	opts     Options
	// adm bounds concurrent vocalizations and sheds the rest.
	adm *admission.Controller
	// serving counts per-tenant query outcomes for /api/stats.
	serving servingCounters
	// answers is the semantic cache: finished full-quality speeches keyed
	// by (dataset epoch, vocalizer, canonical query). nil disables semantic
	// caching.
	answers *semcache.Cache[cachedAnswer]
	// ingestBatches / ingestRows count accepted append batches and rows;
	// staleAnswers counts replies flagged stale (epoch moved mid-answer).
	ingestBatches atomic.Int64
	ingestRows    atomic.Int64
	staleAnswers  atomic.Int64
	// latw tracks vocalize wall latencies for /metrics quantiles.
	latw *latencyWindow
	// now is the server-side bookkeeping clock, stubbed in tests.
	now func() time.Time
	// holdVocalize, when non-nil, blocks vocalizations until closed —
	// a test hook for exercising admission control deterministically.
	holdVocalize chan struct{}
	// vocalizeParked, when non-nil, is closed once a request reaches the
	// holdVocalize gate (its command is committed, its epoch captured) —
	// the companion hook that lets a test order events around the hold.
	// The first request there takes it and clears it under mu.
	vocalizeParked chan struct{}
	// committed, when non-nil, is called under s.mu with every request
	// whose command commit has just published — the test hook that reads
	// the order commands were applied in.
	committed func(*request)
}

// NewServerWith registers the datasets and returns a server with the given
// robustness Options (zero fields take their defaults). cfg configures the
// holistic vocalizer as it is, clock and caps included (core.DaemonConfig
// is the daemon's), with each dataset's value format; a simulated clock
// makes responses immediate — the browser performs actual playback.
func NewServerWith(cfg core.Config, opts Options, infos ...DatasetInfo) (*Server, error) {
	if len(infos) == 0 {
		return nil, errors.New("web: at least one dataset required")
	}
	opts = opts.normalize()
	s := &Server{
		datasets: make(map[string]*datasetState, len(infos)),
		sessions: make(map[string]*list.Element),
		recency:  list.New(),
		log:      queryLog{cap: opts.LogCap},
		cfg:      cfg,
		opts:     opts,
		latw:     newLatencyWindow(512),
		now:      time.Now,
	}
	if opts.SemCacheEntries > 0 {
		s.answers = semcache.New[cachedAnswer](opts.SemCacheEntries)
	}
	s.adm = admission.NewController(admission.Config{Slots: opts.MaxConcurrent})
	for _, info := range infos {
		if info.Dataset == nil || info.Name == "" {
			return nil, errors.New("web: dataset info incomplete")
		}
		if _, dup := s.datasets[info.Name]; dup {
			return nil, fmt.Errorf("web: duplicate dataset %q", info.Name)
		}
		s.datasets[info.Name] = &datasetState{info: info, loadedAt: s.now()}
		s.order = append(s.order, info.Name)
	}
	return s, nil
}

// Handler returns the HTTP handler with the recovery and per-request
// timeout middleware applied.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /", s.handleIndex)
	mux.HandleFunc("GET /api/datasets", s.handleDatasets)
	mux.HandleFunc("POST /api/query", s.handleQuery)
	mux.HandleFunc("POST /api/ingest", s.handleIngest)
	mux.HandleFunc("GET /api/log", s.handleLog)
	mux.HandleFunc("GET /api/stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	var h http.Handler = mux
	h = withTimeout(h, s.opts.RequestTimeout)
	h = withRecovery(h, s.opts.Logf)
	return h
}

// handleIndex serves the minimal study page.
func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, indexHTML)
}

// handleDatasets lists the registered datasets.
func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	type dataset struct {
		Name    string `json:"name"`
		Rows    int    `json:"rows"`
		Measure string `json:"measure"`
		// Epoch counts the ingest batches; Live marks datasets that have
		// accepted streaming appends.
		Epoch int64 `json:"epoch"`
		Live  bool  `json:"live,omitempty"`
	}
	s.mu.Lock()
	out := make([]dataset, 0, len(s.order))
	for _, name := range s.order {
		st := s.datasets[name]
		out = append(out, dataset{
			Name:    name,
			Rows:    st.info.Dataset.Table().NumRows(),
			Measure: st.info.MeasureDesc,
			Epoch:   st.epoch,
			Live:    st.live != nil,
		})
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

// queryRequest is the /api/query payload.
type queryRequest struct {
	// Session identifies the exploration session (the study asked for the
	// crowd worker ID).
	Session string `json:"session"`
	// Dataset selects the registered dataset.
	Dataset string `json:"dataset"`
	// Input is the voice or keyboard command.
	Input string `json:"input"`
	// Method selects the vocalizer: "this" (holistic) or "prior".
	Method string `json:"method"`
}

// queryResponse is the /api/query reply.
type queryResponse struct {
	Action    string  `json:"action"`
	Message   string  `json:"message,omitempty"`
	Speech    string  `json:"speech,omitempty"`
	LatencyMS float64 `json:"latencyMs"`
	// Degraded marks an answer cut short by the request deadline: the
	// speech is still grammar-valid but shorter than planned.
	Degraded bool `json:"degraded,omitempty"`
	// Structured carries the grammar decomposition for holistic answers,
	// so clients can render or re-score speeches without re-parsing text.
	Structured *encode.Speech `json:"structured,omitempty"`
	// SSML carries speech markup for TTS engines that accept it.
	SSML string `json:"ssml,omitempty"`
	// ServedBy names the vocalizer that answered: the requested method
	// ("this" or "prior"), or "cache" when the speech was replayed from
	// the semantic answer cache. Clients validating grammar follow Origin
	// for cache-served answers.
	ServedBy string `json:"servedBy,omitempty"`
	// Origin names the vocalizer that originally produced a cache-served
	// speech ("this" or "prior"); grammar conformance follows Origin when
	// ServedBy is "cache".
	Origin string `json:"origin,omitempty"`
	// Cache classifies the semantic-cache path: "hit" for a replayed
	// answer, "coalesced" when this request shared another request's
	// in-flight computation of the same canonical query. Empty for cold
	// answers.
	Cache string `json:"cache,omitempty"`
	// DataEpoch is the dataset epoch the answer's data snapshot belonged
	// to. Streaming clients compare it with ingest acknowledgements: any
	// answer with DataEpoch at or above the client's last acked epoch
	// provably includes those appends.
	DataEpoch int64 `json:"dataEpoch"`
	// TableRows is the committed row count of that snapshot.
	TableRows int64 `json:"tableRows,omitempty"`
	// Stale flags an answer computed against an epoch that was already
	// superseded by an ingest when the reply was written. The speech
	// itself is unchanged and grammar-valid (degrade, don't error);
	// StaleNote carries the spoken caveat.
	Stale bool `json:"stale,omitempty"`
	// StaleNote is the spoken freshness caveat (speech.StaleNote) set
	// exactly when Stale is true.
	StaleNote string `json:"staleNote,omitempty"`
}

// methodName normalizes the requested vocalization method; ok is false
// for methods outside the study's menu (rejected with 400 so client typos
// cannot skew the study logs).
func methodName(m string) (string, bool) {
	switch m {
	case "", "this":
		return "this", true
	case "prior":
		return "prior", true
	default:
		return "", false
	}
}

// Errors of the stage and commit stages that are not the command's own
// parse error; writeCommandError maps them to a status.
var (
	errUnknownDataset = errors.New("unknown dataset")
	errSessionInit    = errors.New("session init")
	// errMoved refuses a no-restage commit: the session or the dataset
	// changed since the command was staged. It never reaches a client.
	errMoved = errors.New("session or epoch moved since staging")
)

// dataset looks up a registered dataset. Caller holds s.mu.
func (s *Server) dataset(name string) (*datasetState, error) {
	st, ok := s.datasets[name]
	if !ok {
		return nil, fmt.Errorf("%w %q", errUnknownDataset, name)
	}
	return st, nil
}

// session returns key's row of the session table, creating it on first use
// and moving it to the hot end. Sessions idle past the TTL, and the least
// recently used ones beyond MaxSessions, drop off the cold end of the
// recency list. Caller holds s.mu.
func (s *Server) session(key string, st *datasetState) (*sessionEntry, error) {
	now := s.now()
	for el := s.recency.Back(); el != nil && now.Sub(el.Value.(*sessionEntry).lastUsed) > s.opts.SessionTTL; el = s.recency.Back() {
		s.dropSession(el)
	}
	if el, ok := s.sessions[key]; ok {
		e := el.Value.(*sessionEntry)
		e.lastUsed = now
		s.recency.MoveToFront(el)
		return e, nil
	}
	sess, err := st.newSession()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errSessionInit, err)
	}
	for len(s.sessions) >= s.opts.MaxSessions {
		s.dropSession(s.recency.Back())
	}
	e := &sessionEntry{key: key, sess: sess, lastUsed: now}
	s.sessions[key] = s.recency.PushFront(e)
	return e, nil
}

// dropSession removes one row from the session table. Caller holds s.mu.
func (s *Server) dropSession(el *list.Element) {
	delete(s.sessions, s.recency.Remove(el).(*sessionEntry).key)
}

// request is one /api/query call on its way through handleQuery's stages.
// Each stage reads what the earlier ones filled in and fills in its own
// part; nothing in it is shared with another request.
type request struct {
	// decode: the payload, the normalized method, the admission tenant and
	// the session-table key.
	queryRequest
	method string
	tenant string
	key    string
	// stage: the published session the command was applied to, the clone
	// that carries the result (invisible to everyone else until commit),
	// and what the command did. commit rewrites all three if it restages.
	base   *nlq.Session
	staged *nlq.Session
	resp   nlq.Response
	// st is the dataset's state; epoch and info are read from it under
	// s.mu — epoch by stage (for the cache key) and both again by commit,
	// which is the pair the planner runs on.
	st    *datasetState
	epoch int64
	info  DatasetInfo
}

// stageOn applies the command to a clone of base. The one place a request
// clones and parses: stage calls it outside s.mu, commit under it.
func (req *request) stageOn(base *nlq.Session) (err error) {
	req.base, req.staged = base, base.Clone()
	req.resp, err = req.staged.Parse(req.Input)
	return err
}

// answer is what respondSpeech speaks, logs and books: the speech, its
// origin, and how the cache served it.
type answer struct {
	cachedAnswer
	outcome   semcache.Outcome
	latencyMS float64
}

// handleQuery applies the command to the caller's session and vocalizes
// the resulting query with the chosen method. One request value passes
// through the stages in order — decode, stage, cache lookup, admit, commit,
// plan, respond — and every stage that can refuse the request does so
// before commit, so a refused request leaves the session as it was.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decodeQuery(w, r)
	if !ok {
		return
	}
	if err := s.stage(req); err != nil {
		s.writeCommandError(w, err)
		return
	}
	// Only queries vocalize. Help, summaries and navigation feedback skip
	// the cache and admission and go straight to commit.
	vocalizes := req.resp.IsQuery
	if vocalizes {
		// An equivalent query already answered this epoch replays its speech
		// before admission — even while shedding — provided session and
		// epoch still are what the key was computed from.
		start := time.Now()
		if hit, ok := s.lookup(req); ok && s.commit(req, false) == nil {
			s.respondSpeech(w, r, req, answer{hit, semcache.Hit, ms(time.Since(start))})
			return
		}
		ticket := s.admit(w, r, req)
		if ticket == nil {
			return
		}
		defer ticket.Release()
	}
	if err := s.commit(req, true); err != nil {
		s.writeCommandError(w, err)
		return
	}
	if !vocalizes || !req.resp.IsQuery {
		// Also the rare command that a racing one turned from query into
		// feedback or back: what was committed is what the reply reports,
		// and only a request that went through admission may plan.
		writeJSON(w, http.StatusOK, queryResponse{Action: req.resp.Action, Message: req.resp.Message})
		return
	}
	ans, err := s.plan(r.Context(), req)
	if err != nil {
		if !s.writeAborted(w, r, req.tenant, err) {
			s.opts.Logf("web: vocalize: %v", err)
			writeError(w, http.StatusInternalServerError, errInternal)
		}
		return
	}
	s.respondSpeech(w, r, req, ans)
}

// decodeBody reads a size-capped JSON body into v. On failure it has
// written the 413 or 400 and returns false.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	err := json.NewDecoder(r.Body).Decode(v)
	if err == nil {
		return true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit))
	} else {
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid JSON: %w", err))
	}
	return false
}

// decodeQuery is the decode stage: payload, method and session checks that
// need no server state. On failure it has written the 4xx.
func (s *Server) decodeQuery(w http.ResponseWriter, r *http.Request) (*request, bool) {
	req := &request{}
	if !s.decodeBody(w, r, &req.queryRequest) {
		return nil, false
	}
	if req.Session == "" {
		writeError(w, http.StatusBadRequest, errors.New("session required"))
		return nil, false
	}
	var ok bool
	if req.method, ok = methodName(req.Method); !ok {
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown method %q (want \"this\" or \"prior\")", req.Method))
		return nil, false
	}
	req.tenant = tenantOf(r, req.Session)
	req.key = req.Session + "\x00" + req.Dataset
	return req, true
}

// stage is the staging step: one hold of s.mu to read the published session
// and the epoch, then clone and parse outside it. Nothing is visible to
// other requests yet (a first command does open its pristine session).
func (s *Server) stage(req *request) error {
	s.mu.Lock()
	st, err := s.dataset(req.Dataset)
	var e *sessionEntry
	if err == nil {
		e, err = s.session(req.key, st)
	}
	if err != nil {
		s.mu.Unlock()
		return err
	}
	req.st, req.epoch = st, st.epoch
	base := e.sess
	s.mu.Unlock()
	return req.stageOn(base)
}

// lookup is the cache-lookup stage: the answer stored for the staged query
// at the staged epoch, if any.
func (s *Server) lookup(req *request) (cachedAnswer, bool) {
	if s.answers == nil {
		return cachedAnswer{}, false
	}
	return s.answers.Get(answerKey(req.Dataset, req.epoch, req.method, req.staged.Query()))
}

// admit is the admission stage: a free slot or a shed. It returns the
// request's vocalization slot, or nil after writing the refusal.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, req *request) *admission.Ticket {
	res := s.adm.Acquire(r.Context(), req.tenant)
	if res.Ticket == nil {
		s.serving.book(req.tenant, res.Shed.String())
		s.writeShed(w, errors.New("server saturated, retry shortly"))
	}
	return res.Ticket
}

// commit is the commit stage, the only place a command becomes visible:
// under s.mu, if the table still holds the session the command was staged
// on, the staged clone replaces it. Otherwise another command on this
// session committed first, or an eviction dropped the session and the
// table now holds a fresh one — either way the command is staged again on
// what the table holds now, inside the same lock hold, so racing commands
// apply one after the other and the query that is planned is always the
// one that was committed. Epoch and dataset info are read in that hold
// too: ingest swaps them under s.mu, and reading them later could pair an
// old epoch with new data.
//
// With restage false (the cache-hit path, which must not commit anything
// but the query its key was computed from) a moved session or epoch
// returns errMoved instead. On any error the table is left as it was.
func (s *Server) commit(req *request, restage bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, err := s.session(req.key, req.st)
	if err != nil {
		return err
	}
	if moved := e.sess != req.base; !restage && (moved || req.st.epoch != req.epoch) {
		return errMoved
	} else if moved {
		if err := req.stageOn(e.sess); err != nil {
			return err
		}
	}
	e.sess = req.staged
	req.epoch, req.info = req.st.epoch, req.st.info
	if s.committed != nil {
		s.committed(req)
	}
	return nil
}

// plan is the plan stage: it gets the committed query's answer from the
// requested vocalizer or from the cache. It books nothing: the reply that
// follows does.
func (s *Server) plan(ctx context.Context, req *request) (answer, error) {
	if s.holdVocalize != nil {
		s.mu.Lock()
		parked := s.vocalizeParked
		s.vocalizeParked = nil
		s.mu.Unlock()
		if parked != nil {
			close(parked)
		}
		<-s.holdVocalize
	}
	start := time.Now()
	cached, outcome, err := s.answerQuery(ctx, req)
	latency := cached.voc.latency
	if outcome != semcache.Miss {
		latency = time.Since(start)
	}
	return answer{cached, outcome, ms(latency)}, err
}

// respondSpeech is the respond stage: it books the answer's outcome, writes
// the speech response and appends the query-log entry. A client that hung
// up gets a 499 through writeAborted and no log entry; a passed deadline
// still gets its degraded 200. If the dataset has moved past the epoch the
// answer was computed against by now, the answer is flagged stale (degrade,
// don't error) with the spoken caveat attached.
func (s *Server) respondSpeech(w http.ResponseWriter, r *http.Request, req *request, ans answer) {
	if s.writeAborted(w, r, req.tenant, nil) {
		return
	}
	out := queryResponse{
		Action:     req.resp.Action,
		Message:    req.resp.Message,
		Speech:     ans.voc.text,
		LatencyMS:  ans.latencyMS,
		Degraded:   ans.voc.degraded,
		Structured: ans.voc.structured,
		SSML:       ans.voc.ssml,
		ServedBy:   req.method,
		DataEpoch:  req.epoch,
		TableRows:  ans.voc.tableRows,
	}
	if ans.outcome != semcache.Miss {
		out.ServedBy, out.Origin, out.Cache = "cache", ans.origin, ans.outcome.String()
	}
	s.serving.book(req.tenant, ans.outcome.String())
	s.mu.Lock()
	if req.st.epoch != req.epoch {
		out.Stale = true
		out.StaleNote = speech.StaleNote
	}
	s.log.add(QueryLogEntry{
		Time:      s.now(),
		Session:   req.Session,
		Dataset:   req.Dataset,
		Input:     req.Input,
		Method:    req.method,
		Speech:    out.Speech,
		LatencyMS: out.LatencyMS,
		Degraded:  out.Degraded,
		ServedBy:  out.ServedBy,
		Origin:    out.Origin,
		Cache:     out.Cache,
		DataEpoch: out.DataEpoch,
		Stale:     out.Stale,
	})
	s.mu.Unlock()
	if out.Stale {
		s.staleAnswers.Add(1)
	}
	writeJSON(w, http.StatusOK, out)
}

// writeCommandError answers a request whose command could not be staged or
// committed: an unknown dataset is 404, a session that could not be opened
// is a logged 500, anything else is the parser refusing the input (422).
func (s *Server) writeCommandError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errUnknownDataset):
		writeError(w, http.StatusNotFound, err)
	case errors.Is(err, errSessionInit):
		s.opts.Logf("web: %v", err)
		writeError(w, http.StatusInternalServerError, errInternal)
	default:
		writeError(w, http.StatusUnprocessableEntity, err)
	}
}

// writeAborted answers a request that its own context cut short: 499, booked
// as gone, when the client hung up, 408, booked as timed out, when err is
// the request deadline. It reports false, writing nothing, otherwise (err
// may be nil).
func (s *Server) writeAborted(w http.ResponseWriter, r *http.Request, tenant string, err error) bool {
	switch {
	case errors.Is(err, context.Canceled) || r.Context().Err() == context.Canceled:
		s.serving.book(tenant, "client-gone")
		writeError(w, statusClientClosedRequest, errors.New("client closed request"))
	case errors.Is(err, context.DeadlineExceeded):
		s.serving.book(tenant, "timed-out")
		writeError(w, http.StatusRequestTimeout, errors.New("request deadline exceeded"))
	default:
		return false
	}
	return true
}

// ms renders a duration as the fractional milliseconds the API reports.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// vocOut is one vocalizer run's result, rendered for the reply once, when
// the answer is made. The cache entry, coalesced waiters and the cold reply
// all share it, so nothing may write to it afterwards.
type vocOut struct {
	text string
	// structured and ssml are the holistic grammar's decomposition and
	// markup; nil and empty for the prior baseline.
	structured *encode.Speech
	ssml       string
	latency    time.Duration
	degraded   bool
	// tableRows is the committed row count of the data snapshot the
	// answer was computed over.
	tableRows int64
}

// vocalize runs the chosen vocalizer on the query under ctx.
func (s *Server) vocalize(ctx context.Context, info DatasetInfo, q olap.Query, method string) (vocOut, error) {
	if method == "prior" {
		out, err := baseline.NewPrior(info.Dataset, q, baseline.Config{Format: info.Format}).VocalizeContext(ctx)
		if err != nil {
			return vocOut{}, err
		}
		return vocOut{
			text:      out.Text,
			latency:   out.Latency,
			degraded:  out.Truncated,
			tableRows: int64(info.Dataset.Table().NumRows()),
		}, nil
	}
	cfg := s.cfg
	cfg.Format = info.Format
	out, err := core.NewHolistic(info.Dataset, q, cfg).VocalizeContext(ctx)
	if err != nil {
		return vocOut{}, err
	}
	enc := encode.EncodeSpeech(out.Speech)
	return vocOut{
		text:       enc.Text,
		structured: &enc,
		ssml:       out.Speech.SSML(speech.DefaultSSMLOptions()),
		latency:    out.Latency,
		degraded:   out.Degraded,
		tableRows:  out.TableRows,
	}, nil
}

// handleLog returns the query log (newest LogCap entries).
func (s *Server) handleLog(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := s.log.snapshot()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

// writeJSON writes v as a JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// The header is already out; nothing sensible left to do.
		return
	}
}

// writeError writes a JSON error payload.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// indexHTML is the minimal single-page study interface. Speech synthesis
// uses the browser's speechSynthesis API, standing in for the paper's
// ResponsiveVoiceJS integration.
const indexHTML = `<!DOCTYPE html>
<html>
<head><meta charset="utf-8"><title>Voice-Based OLAP</title></head>
<body>
<h1>Voice-Based OLAP</h1>
<p>Type a command (say "help" for keywords). Results are spoken aloud.</p>
<select id="dataset"></select>
<select id="method">
  <option value="this">This approach (holistic)</option>
  <option value="prior">Prior vocalization</option>
</select>
<input id="input" size="60" placeholder="how does cancellation depend on region and season">
<button onclick="ask()">Ask</button>
<pre id="out"></pre>
<script>
const session = "web-" + Math.random().toString(36).slice(2);
fetch("/api/datasets").then(r => r.json()).then(ds => {
  const sel = document.getElementById("dataset");
  ds.forEach(d => { const o = document.createElement("option"); o.value = d.name; o.textContent = d.name + " (" + d.measure + ")"; sel.appendChild(o); });
});
async function ask() {
  const body = {
    session: session,
    dataset: document.getElementById("dataset").value,
    input: document.getElementById("input").value,
    method: document.getElementById("method").value,
  };
  const r = await fetch("/api/query", {method: "POST", headers: {"Content-Type": "application/json"}, body: JSON.stringify(body)});
  const j = await r.json();
  const text = j.error || j.speech || j.message || "";
  document.getElementById("out").textContent = text + (j.speech ? "\n\n[latency " + j.latencyMs.toFixed(1) + " ms]" : "");
  if (text && window.speechSynthesis) {
    window.speechSynthesis.speak(new SpeechSynthesisUtterance(text));
  }
}
</script>
</body>
</html>
`
