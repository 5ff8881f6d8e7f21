package web

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/speech"
	"repro/internal/table"
	"repro/internal/voice"
)

// newHardenedServer builds a server with explicit Options and returns both
// the Server (for internal inspection) and a running test listener.
func newHardenedServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	return newHardenedServerRounds(t, 100, opts)
}

// newHardenedServerRounds is newHardenedServer with the planner's round cap
// per sentence chosen by the caller.
func newHardenedServerRounds(t *testing.T, maxRounds int, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	return newFlightsServer(t, core.Config{
		Seed:                 1,
		Clock:                voice.NewSimClock(),
		MaxRoundsPerSentence: maxRounds,
		Percents:             []int{50, 100},
	}, opts)
}

// newFlightsServer serves 5 000 generated flights under cfg and opts on a
// test listener. Every holistic plan opens its scan (cfg.Scanner, or the
// default random scan) through the server's scan gate, which parkScans arms.
func newFlightsServer(t testing.TB, cfg core.Config, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	flights, err := datagen.Flights(datagen.FlightsConfig{Rows: 5000, Seed: 131})
	if err != nil {
		t.Fatalf("Flights: %v", err)
	}
	gate, scan := new(atomic.Pointer[scanGate]), cfg.Scanner
	if scan == nil {
		scan = func(tb *table.Table, rng *rand.Rand) table.Scanner { return table.NewRandomScanner(tb, rng) }
	}
	cfg.Scanner = func(tb *table.Table, rng *rand.Rand) table.Scanner {
		if g := gate.Load(); g != nil {
			g.arrived.Do(func() { close(g.parked) })
			<-g.release
		}
		return scan(tb, rng)
	}
	srv, err := NewServerWith(cfg, opts,
		DatasetInfo{Name: "flights", Dataset: flights, MeasureCol: "cancelled",
			MeasureDesc: "average cancellation probability", Format: speech.PercentFormat},
	)
	if err != nil {
		t.Fatalf("NewServerWith: %v", err)
	}
	scanGates.Store(srv, gate)
	t.Cleanup(func() { scanGates.Delete(srv) })
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// scanGate holds holistic plans at their scan, after their command's commit
// and inside their cache flight: every plan that opens its scan while the
// gate is armed waits there until release is closed, and parked closes when
// the first one arrives. With the cache on, identical queries meanwhile
// coalesce onto the parked plan's flight. The prior baseline opens no scan
// and never parks.
type scanGate struct {
	parked, release chan struct{}
	arrived         sync.Once
}

// scanGates holds each newFlightsServer server's gate slot.
var scanGates sync.Map // *Server -> *atomic.Pointer[scanGate]

// parkScans arms srv's scan gate with a new gate and returns it. A released
// gate lets every later scan through until the next parkScans.
func parkScans(srv *Server) *scanGate {
	g := &scanGate{parked: make(chan struct{}), release: make(chan struct{})}
	slot, _ := scanGates.Load(srv)
	slot.(*atomic.Pointer[scanGate]).Store(g)
	return g
}

func TestUnknownMethodRejected(t *testing.T) {
	_, ts := newHardenedServer(t, Options{})
	out, code := postQuery(t, ts, map[string]string{
		"session": "m1", "dataset": "flights",
		"input": "break down by season", "method": "fancy",
	})
	if code != http.StatusBadRequest {
		t.Fatalf("unknown method status = %d: %v", code, out)
	}
	msg, _ := out["error"].(string)
	if !strings.Contains(msg, "fancy") {
		t.Errorf("error should name the rejected method: %q", msg)
	}
	// The empty method still defaults to the holistic vocalizer.
	_, code = postQuery(t, ts, map[string]string{
		"session": "m1", "dataset": "flights", "input": "help",
	})
	if code != http.StatusOK {
		t.Errorf("empty method status = %d", code)
	}
}

func TestOversizedBodyRejected(t *testing.T) {
	_, ts := newHardenedServer(t, Options{MaxBodyBytes: 128})
	body := fmt.Sprintf(`{"session":"big","dataset":"flights","input":%q}`,
		strings.Repeat("x", 4096))
	resp, err := http.Post(ts.URL+"/api/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body status = %d, want 413", resp.StatusCode)
	}
}

func TestSaturatedServerReturns503(t *testing.T) {
	srv, ts := newHardenedServer(t, Options{MaxConcurrent: 1})
	gate := parkScans(srv)

	firstDone := make(chan int, 1)
	go func() {
		_, code := postQuery(t, ts, map[string]string{
			"session": "sat", "dataset": "flights",
			"input": "break down by season", "method": "this",
		})
		firstDone <- code
	}()
	// The first request holds the admission slot while it plans.
	waitFor(t, gate.parked, "the first request's plan at its scan")

	b, _ := json.Marshal(map[string]string{
		"session": "sat2", "dataset": "flights",
		"input": "break down by season", "method": "prior",
	})
	resp, err := http.Post(ts.URL+"/api/query", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("saturated status = %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", got)
	}

	close(gate.release)
	if code := <-firstDone; code != http.StatusOK {
		t.Errorf("held request finished with %d, want 200", code)
	}
}

func TestQueryLogRingKeepsNewest(t *testing.T) {
	_, ts := newHardenedServer(t, Options{LogCap: 3})
	for i := 0; i < 5; i++ {
		_, code := postQuery(t, ts, map[string]string{
			"session": fmt.Sprintf("ring-%d", i), "dataset": "flights",
			"input": "break down by season", "method": "prior",
		})
		if code != http.StatusOK {
			t.Fatalf("query %d status = %d", i, code)
		}
	}
	resp, err := http.Get(ts.URL + "/api/log")
	if err != nil {
		t.Fatalf("GET log: %v", err)
	}
	defer resp.Body.Close()
	var entries []QueryLogEntry
	if err := json.NewDecoder(resp.Body).Decode(&entries); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(entries) != 3 {
		t.Fatalf("log entries = %d, want 3", len(entries))
	}
	for i, want := range []string{"ring-2", "ring-3", "ring-4"} {
		if entries[i].Session != want {
			t.Errorf("entry %d session = %q, want %q (oldest must be dropped first)",
				i, entries[i].Session, want)
		}
	}
}

func TestSessionTTLEviction(t *testing.T) {
	srv, ts := newHardenedServer(t, Options{SessionTTL: time.Minute})
	var mu sync.Mutex
	now := time.Unix(1_000_000, 0)
	srv.now = func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	postQuery(t, ts, map[string]string{"session": "old", "dataset": "flights", "input": "help"})
	mu.Lock()
	now = now.Add(2 * time.Minute)
	mu.Unlock()
	postQuery(t, ts, map[string]string{"session": "new", "dataset": "flights", "input": "help"})

	srv.mu.Lock()
	_, oldAlive := srv.sessions["old\x00flights"]
	_, newAlive := srv.sessions["new\x00flights"]
	srv.mu.Unlock()
	if oldAlive {
		t.Error("session idle past the TTL should be evicted")
	}
	if !newAlive {
		t.Error("fresh session should survive the sweep")
	}
}

func TestSessionLRUEviction(t *testing.T) {
	srv, ts := newHardenedServer(t, Options{MaxSessions: 2})
	var mu sync.Mutex
	now := time.Unix(1_000_000, 0)
	srv.now = func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	for _, name := range []string{"a", "b", "c"} {
		postQuery(t, ts, map[string]string{"session": name, "dataset": "flights", "input": "help"})
		mu.Lock()
		now = now.Add(time.Second)
		mu.Unlock()
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if len(srv.sessions) != 2 {
		t.Fatalf("live sessions = %d, want 2", len(srv.sessions))
	}
	if _, ok := srv.sessions["a\x00flights"]; ok {
		t.Error("least recently used session should be evicted")
	}
	for _, name := range []string{"b", "c"} {
		if _, ok := srv.sessions[name+"\x00flights"]; !ok {
			t.Errorf("session %q should survive LRU eviction", name)
		}
	}
}

func TestRecoveryMiddlewareTurnsPanicsInto500(t *testing.T) {
	var logged string
	h := withRecovery(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("boom")
	}), func(format string, args ...any) { logged = fmt.Sprintf(format, args...) })
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", rec.Code)
	}
	if !strings.Contains(logged, "boom") {
		t.Errorf("panic value missing from log: %q", logged)
	}
	if strings.Contains(rec.Body.String(), "boom") {
		t.Error("panic detail must not leak to the client")
	}
}

func TestRecoveryMiddlewarePassesAbortHandler(t *testing.T) {
	h := withRecovery(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	}), func(format string, args ...any) {})
	defer func() {
		if recover() != http.ErrAbortHandler {
			t.Error("ErrAbortHandler must propagate to net/http")
		}
	}()
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
	t.Error("expected re-panic")
}

func TestRequestTimeoutDegradesAnswer(t *testing.T) {
	_, ts := newHardenedServer(t, Options{RequestTimeout: time.Nanosecond})
	out, code := postQuery(t, ts, map[string]string{
		"session": "slow", "dataset": "flights",
		"input": "break down by season", "method": "this",
	})
	if code != http.StatusOK {
		t.Fatalf("status = %d: %v (deadline must degrade, not fail)", code, out)
	}
	if out["degraded"] != true {
		t.Error("nanosecond deadline should mark the answer degraded")
	}
	sp, _ := out["speech"].(string)
	if !strings.Contains(sp, "Considering") {
		t.Errorf("degraded answer should keep the preamble: %q", sp)
	}
}

func TestConcurrentQueriesAndLogReads(t *testing.T) {
	_, ts := newHardenedServer(t, Options{})
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, code := postQuery(t, ts, map[string]string{
				"session": "shared", "dataset": "flights",
				"input": "break down by season", "method": "prior",
			})
			if code != http.StatusOK {
				t.Errorf("query %d status = %d", i, code)
			}
		}(i)
	}
	// Log and stats reads race the writers; -race verifies locking.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, path := range []string{"/api/log", "/api/stats"} {
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					t.Errorf("GET %s: %v", path, err)
					continue
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("GET %s status = %d", path, resp.StatusCode)
				}
			}
		}()
	}
	wg.Wait()
}

// TestConcurrentPlansSpeakWhatTheySpeakAlone pins one simulated clock per
// answer: two plans running at once must not advance each other's playback
// timeline, so each speaks exactly what it speaks with the server to itself.
func TestConcurrentPlansSpeakWhatTheySpeakAlone(t *testing.T) {
	// The round cap is out of reach, so playback alone ends each planning
	// window, as it does for short sentences under the daemon's cap.
	_, ts := newHardenedServerRounds(t, 1<<20, Options{SemCacheEntries: -1})
	inputs := []string{"break down by region and season", "break down by state"}
	ask := func(session, input string) string {
		b, _ := json.Marshal(map[string]string{"session": session, "dataset": "flights", "input": input, "method": "this"})
		resp, err := http.Post(ts.URL+"/api/query", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Errorf("POST: %v", err)
			return ""
		}
		defer resp.Body.Close()
		var out struct {
			Speech   string `json:"speech"`
			Degraded bool   `json:"degraded"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK || out.Degraded {
			t.Errorf("%q: status %d, degraded %v, decode %v", input, resp.StatusCode, out.Degraded, err)
		}
		return out.Speech
	}
	alone := make([]string, len(inputs))
	for i, in := range inputs {
		alone[i] = ask(fmt.Sprintf("alone-%d", i), in)
	}
	for round := 0; round < 3; round++ {
		together := make([]string, len(inputs))
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i, in := range inputs {
			wg.Add(1)
			go func(i int, in string) {
				defer wg.Done()
				<-start
				together[i] = ask(fmt.Sprintf("together-%d-%d", round, i), in)
			}(i, in)
		}
		close(start)
		wg.Wait()
		for i := range inputs {
			if together[i] != alone[i] {
				t.Fatalf("round %d, %q: concurrent plan spoke\n%q\nalone it speaks\n%q", round, inputs[i], together[i], alone[i])
			}
		}
	}
}
