package web

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/olap"
	"repro/internal/table"
	"repro/internal/voice"
)

// newCacheServer builds a server with a fully deterministic vocalizer
// config (simulated clock, fixed seed) so cold answers for equal
// canonical queries are bit-identical across sessions and servers — the
// property the semantic cache's soundness rests on.
func newCacheServer(t testing.TB, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	return newFlightsServer(t, core.Config{
		Seed:                 7,
		Clock:                voice.NewSimClock(),
		MaxRoundsPerSentence: 100,
		Percents:             []int{50, 100},
	}, opts)
}

// equivalentPhrasings are distinct voice inputs that parse to the same
// canonical query: scope order is swapped and "carrier" is a synonym of
// the "airline" hierarchy.
var equivalentPhrasings = []string{
	"how does cancellation depend on region and carrier",
	"how does cancellation depend on airline and region",
	"how does cancellation depend on region and airline",
}

// TestCacheHitBitIdenticalToCold is the golden soundness test: every
// cache hit for a canonically equal query must replay exactly the speech
// the cold path would produce — same text, same structured grammar.
func TestCacheHitBitIdenticalToCold(t *testing.T) {
	// Control server: caching disabled, pure cold path.
	_, cold := newCacheServer(t, Options{SemCacheEntries: -1})
	srv, ts := newCacheServer(t, Options{})

	coldOut, code := postQuery(t, cold, map[string]string{
		"session": "c1", "dataset": "flights",
		"input": equivalentPhrasings[0], "method": "this",
	})
	if code != http.StatusOK {
		t.Fatalf("cold query status = %d: %v", code, coldOut)
	}
	wantSpeech, _ := coldOut["speech"].(string)
	if wantSpeech == "" {
		t.Fatal("cold query produced no speech")
	}
	wantStructured, _ := json.Marshal(coldOut["structured"])

	// First phrasing on the caching server: a miss that computes the
	// same cold answer and stores it.
	first, code := postQuery(t, ts, map[string]string{
		"session": "h0", "dataset": "flights",
		"input": equivalentPhrasings[0], "method": "this",
	})
	if code != http.StatusOK {
		t.Fatalf("first query status = %d: %v", code, first)
	}
	if first["cache"] != nil {
		t.Fatalf("first query should be cold, got cache=%v", first["cache"])
	}
	if got, _ := first["speech"].(string); got != wantSpeech {
		t.Fatalf("cold answers diverge between identically configured servers:\n  %q\n  %q", got, wantSpeech)
	}

	// Every equivalent phrasing, each in a fresh session, replays the
	// stored answer bit for bit.
	for i, phrasing := range equivalentPhrasings {
		out, code := postQuery(t, ts, map[string]string{
			"session": "h" + string(rune('1'+i)), "dataset": "flights",
			"input": phrasing, "method": "this",
		})
		if code != http.StatusOK {
			t.Fatalf("phrasing %d status = %d: %v", i, code, out)
		}
		if out["servedBy"] != "cache" || out["cache"] != "hit" || out["origin"] != "this" {
			t.Fatalf("phrasing %d servedBy=%v cache=%v origin=%v, want cache/hit/this",
				i, out["servedBy"], out["cache"], out["origin"])
		}
		if got, _ := out["speech"].(string); got != wantSpeech {
			t.Errorf("phrasing %d replayed speech differs from cold path:\n  %q\n  %q", i, got, wantSpeech)
		}
		if got, _ := json.Marshal(out["structured"]); string(got) != string(wantStructured) {
			t.Errorf("phrasing %d structured answer differs from cold path", i)
		}
		if out["degraded"] == true {
			t.Errorf("phrasing %d hit marked degraded", i)
		}
	}

	// A session that assembles the same scope set in the opposite order —
	// airline first, then region — must hit the same entry: GroupBy order
	// is canonicalized away, in the key and in the vocalized query alike.
	for _, in := range []string{"remove start airport", "break down by carrier"} {
		if out, code := postQuery(t, ts, map[string]string{
			"session": "h9", "dataset": "flights", "input": in, "method": "this",
		}); code != http.StatusOK {
			t.Fatalf("setup %q status = %d: %v", in, code, out)
		}
	}
	out, code := postQuery(t, ts, map[string]string{
		"session": "h9", "dataset": "flights",
		"input": "break down by region", "method": "this",
	})
	if code != http.StatusOK {
		t.Fatalf("reordered query status = %d: %v", code, out)
	}
	if out["servedBy"] != "cache" {
		t.Fatalf("reordered scope set missed the cache: %v", out)
	}
	if got, _ := out["speech"].(string); got != wantSpeech {
		t.Errorf("reordered replay differs from cold path:\n  %q\n  %q", got, wantSpeech)
	}

	st := srv.servingStats()
	if st.SemCache == nil || st.SemCache.HitsServed != int64(len(equivalentPhrasings))+1 {
		t.Errorf("semcache stats = %+v, want %d hits served", st.SemCache, len(equivalentPhrasings)+1)
	}
}

// TestPriorAnswersCachedSeparately: the prior vocalizer's speeches are
// keyed apart from holistic ones, and replay identically too.
func TestPriorAnswersCachedSeparately(t *testing.T) {
	_, ts := newCacheServer(t, Options{})
	first, code := postQuery(t, ts, map[string]string{
		"session": "p1", "dataset": "flights",
		"input": equivalentPhrasings[0], "method": "prior",
	})
	if code != http.StatusOK {
		t.Fatalf("prior query status = %d: %v", code, first)
	}
	if first["cache"] != nil {
		t.Fatalf("first prior query should be cold, got %v", first["cache"])
	}
	// A holistic request for the same query must not replay the prior
	// speech.
	out, _ := postQuery(t, ts, map[string]string{
		"session": "p2", "dataset": "flights",
		"input": equivalentPhrasings[1], "method": "this",
	})
	if out["servedBy"] == "cache" {
		t.Fatal("holistic request replayed a prior-method answer")
	}
	// But an equivalent prior request replays it bit for bit.
	hit, _ := postQuery(t, ts, map[string]string{
		"session": "p3", "dataset": "flights",
		"input": equivalentPhrasings[2], "method": "prior",
	})
	if hit["servedBy"] != "cache" || hit["origin"] != "prior" {
		t.Fatalf("prior rephrase servedBy=%v origin=%v, want cache/prior", hit["servedBy"], hit["origin"])
	}
	if hit["speech"] != first["speech"] {
		t.Errorf("prior replay differs:\n  %v\n  %v", hit["speech"], first["speech"])
	}
}

// TestEpochInvalidationNeverServesStale: an ingest batch bumps the
// dataset's epoch, so answers computed against the old rows are never
// replayed — the repeated query recomputes against the new rows.
func TestEpochInvalidationNeverServesStale(t *testing.T) {
	srv, ts := newCacheServer(t, Options{})
	ask := func(session string) map[string]any {
		out, code := postQuery(t, ts, map[string]string{
			"session": session, "dataset": "flights",
			"input": equivalentPhrasings[0], "method": "this",
		})
		if code != http.StatusOK {
			t.Fatalf("query status = %d: %v", code, out)
		}
		return out
	}
	ask("e1")
	if hit := ask("e2"); hit["servedBy"] != "cache" {
		t.Fatalf("pre-ingest rephrase not served from cache: %v", hit["servedBy"])
	}

	if ack, code := postIngest(t, ts, "flights", datagen.FlightRows(999, 500)); code != http.StatusOK {
		t.Fatalf("ingest status = %d: %v", code, ack)
	}

	after := ask("e3")
	if after["servedBy"] == "cache" || after["cache"] != nil {
		t.Fatalf("post-ingest query served from cache: servedBy=%v cache=%v",
			after["servedBy"], after["cache"])
	}
	if after["dataEpoch"] != 1.0 {
		t.Errorf("post-ingest answer at epoch %v, want 1", after["dataEpoch"])
	}
	st := srv.servingStats()
	if st.SemCache == nil || st.SemCache.Answers.Purged == 0 {
		t.Error("ingest purged nothing from the answer cache")
	}
}

// TestDegradedNeverCached: answers cut short by the request deadline are
// served once and never stored, so no later query can replay a degraded
// speech.
func TestDegradedNeverCached(t *testing.T) {
	srv, ts := newCacheServer(t, Options{RequestTimeout: time.Nanosecond})
	for i := 0; i < 3; i++ {
		out, code := postQuery(t, ts, map[string]string{
			"session": "d1", "dataset": "flights",
			"input": "break down by season", "method": "this",
		})
		if code != http.StatusOK {
			t.Fatalf("query %d status = %d: %v", i, code, out)
		}
		if out["degraded"] != true {
			t.Fatalf("query %d not degraded under a nanosecond deadline: %v", i, out)
		}
		if out["servedBy"] == "cache" || out["cache"] != nil {
			t.Fatalf("query %d replayed a degraded answer: servedBy=%v cache=%v",
				i, out["servedBy"], out["cache"])
		}
	}
	st := srv.answers.Stats()
	if st.Stores != 0 {
		t.Errorf("degraded answers were stored: %+v", st)
	}
	if st.Rejected == 0 {
		t.Error("degraded answers should be counted as rejected stores")
	}
}

// TestSingleflightHerd: concurrent equivalent queries run the planner
// once; the rest share the stored result (as a coalesced wait or an
// immediate hit).
func TestSingleflightHerd(t *testing.T) {
	srv, ts := newCacheServer(t, Options{MaxConcurrent: 8})
	gate := parkScans(srv)

	const workers = 4
	outs := make([]map[string]any, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], _ = postQuery(t, ts, map[string]string{
				"session": "herd" + string(rune('a'+i)), "dataset": "flights",
				"input": equivalentPhrasings[i%len(equivalentPhrasings)], "method": "this",
			})
		}(i)
	}
	// Wait until the leader is parked in its flight and every worker is
	// past the fast path and holding a slot.
	waitFor(t, gate.parked, "the leader's plan at its scan")
	deadline := time.Now().Add(5 * time.Second)
	for srv.adm.InFlight() < workers && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(gate.release)
	wg.Wait()

	cold, shared := 0, 0
	var speechText string
	for i, out := range outs {
		sp, _ := out["speech"].(string)
		if sp == "" {
			t.Fatalf("worker %d got no speech: %v", i, out)
		}
		if speechText == "" {
			speechText = sp
		} else if sp != speechText {
			t.Errorf("worker %d speech differs from the herd's", i)
		}
		if out["servedBy"] == "cache" {
			shared++
		} else {
			cold++
		}
	}
	if cold != 1 || shared != workers-1 {
		t.Errorf("herd outcomes: %d cold, %d shared; want 1 and %d", cold, shared, workers-1)
	}
}

// TestEvictedAnswerReplansCold: an answer the cache evicted is planned
// again, and the planner's determinism makes the second plan the first
// one's speech byte for byte.
func TestEvictedAnswerReplansCold(t *testing.T) {
	_, ts := newCacheServer(t, Options{SemCacheEntries: 1})
	ask := func(session, input string) map[string]any {
		out, code := postQuery(t, ts, map[string]string{
			"session": session, "dataset": "flights", "input": input, "method": "this",
		})
		if code != http.StatusOK {
			t.Fatalf("query status = %d: %v", code, out)
		}
		return out
	}
	first := ask("e1", "break down by season")
	ask("e2", "break down by airline") // evicts the season answer (cap 1)
	again := ask("e3", "break down by season")
	if again["servedBy"] != "this" {
		t.Errorf("servedBy = %v, want this (the answer was evicted)", again["servedBy"])
	}
	if c, ok := again["cache"]; ok {
		t.Errorf("cache = %v on a planned answer, want the field absent", c)
	}
	if again["speech"] != first["speech"] || first["speech"] == "" {
		t.Errorf("replanned speech differs from the first:\n  first: %q\n  again: %q", first["speech"], again["speech"])
	}
}

// TestMetricsEndpoint: /metrics speaks the Prometheus text format and
// carries the serving and semcache counters, which count each lookup once.
func TestMetricsEndpoint(t *testing.T) {
	srv, ts := newCacheServer(t, Options{})
	// Two cold queries and one repeat: two misses (the two plans), one hit.
	for _, q := range []struct{ session, input string }{
		{"m1", equivalentPhrasings[0]},
		{"m2", equivalentPhrasings[1]},
		{"m3", "break down by season"},
	} {
		postQuery(t, ts, map[string]string{
			"session": q.session, "dataset": "flights", "input": q.input, "method": "this",
		})
	}
	if sc := srv.semCacheStats(); sc.Answers.Misses != 2 || sc.Answers.Hits != 1 || sc.HitsServed != 1 {
		t.Errorf("Misses %d, Hits %d, HitsServed %d; want 2, 1, 1", sc.Answers.Misses, sc.Answers.Hits, sc.HitsServed)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type = %q, want the 0.0.4 text exposition format", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	body := string(raw)
	for _, want := range []string{
		"# TYPE voiceolap_inflight gauge",
		"voiceolap_semcache_served_total{path=\"hit\"} 1",
		"voiceolap_semcache_answers_total{outcome=\"miss\"} 2",
		"voiceolap_semcache_answers_total{outcome=\"hit\"} 1",
		"voiceolap_semcache_entries 2",
		"voiceolap_tenant_served_total{tenant=\"m1\"} 1",
		"voiceolap_vocalize_latency_seconds{quantile=\"0.5\"}",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestMetricsRunCountOnHitOnlyLog: the vocalizer-run counter is scraped
// although the query-log ring holds no cold answer any more. With a ring of
// two, one cold answer and two hits leave only hits there: /metrics still
// reports _count 1, and no quantile, which only cold entries give.
func TestMetricsRunCountOnHitOnlyLog(t *testing.T) {
	srv, _ := newCacheServer(t, Options{LogCap: 2})
	h := srv.Handler()
	for i, in := range equivalentPhrasings {
		if rec := serve(h, fmt.Sprint("r", i), in, "this"); rec.Code != http.StatusOK {
			t.Fatalf("query %d: status %d: %s", i, rec.Code, rec.Body)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	out := rec.Body.String()
	if line := "voiceolap_vocalize_latency_seconds_count 1\n"; !strings.Contains(out, line) {
		t.Errorf("/metrics lacks %q:\n%s", line, out)
	}
	if strings.Contains(out, "voiceolap_vocalize_latency_seconds{quantile=") {
		t.Errorf("/metrics has quantiles without a cold answer in the log:\n%s", out)
	}
}

// TestMetricsEscapesLabels: a tenant label comes from the client (the
// X-Tenant header, else the session ID), so it may hold any bytes. The text
// format 0.0.4 allows only the escapes \\, \" and \n in a label value, and
// one sample outside it makes the whole scrape unparsable.
func TestMetricsEscapesLabels(t *testing.T) {
	srv, _ := newCacheServer(t, Options{SemCacheEntries: -1})
	h := srv.Handler()
	for _, c := range []struct{ tenant, session string }{
		{"a\tb\xffc\"d\\e", "s1"},
		{"", "line\nbreak"},
	} {
		body, _ := json.Marshal(map[string]string{
			"session": c.session, "dataset": "flights",
			"input": "break down by season", "method": "prior",
		})
		req := httptest.NewRequest("POST", "/api/query", strings.NewReader(string(body)))
		if c.tenant != "" {
			req.Header.Set("X-Tenant", c.tenant)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("tenant %q: status %d: %s", c.tenant, rec.Code, rec.Body)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	out := rec.Body.String()
	for _, want := range []string{
		"voiceolap_tenant_served_total{tenant=\"a\tb\uFFFDc\\\"d\\\\e\"} 1\n",
		"voiceolap_tenant_served_total{tenant=\"line\\nbreak\"} 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output lacks %q", want)
		}
	}
	if !utf8.ValidString(out) {
		t.Error("metrics output is not valid UTF-8")
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		for i := strings.IndexByte(line, '\\'); i >= 0; i = strings.IndexByte(line, '\\') {
			if i+1 == len(line) || !strings.ContainsRune(`\"n`, rune(line[i+1])) {
				t.Errorf("escape outside \\\\, \\\" and \\n: %q", line)
				break
			}
			line = line[i+2:]
		}
	}
}

// faultScanner is a row stream whose first read panics, as a storage fault
// does.
type faultScanner struct{}

// NextBatch implements table.Scanner.
func (faultScanner) NextBatch([]int) int { panic("scan fault") }

// TestScanPanicDoesNotStallTheQuery: a scan that panics answers its request
// 500 and leaves no cache flight behind, so the same query from another
// session computes afresh at once instead of waiting out its deadline on
// a flight that never lands.
func TestScanPanicDoesNotStallTheQuery(t *testing.T) {
	const timeout = 4 * time.Second
	var faulted atomic.Bool
	_, ts := newFlightsServer(t, core.Config{
		Seed:                 7,
		Clock:                voice.NewSimClock(),
		MaxRoundsPerSentence: 100,
		Percents:             []int{50, 100},
		Scanner: func(tb *table.Table, rng *rand.Rand) table.Scanner {
			if faulted.CompareAndSwap(false, true) {
				return faultScanner{}
			}
			return table.NewRandomScanner(tb, rng)
		},
	}, Options{RequestTimeout: timeout, Logf: func(string, ...any) {}})
	ask := func(session string) (map[string]any, int) {
		return postQuery(t, ts, map[string]string{
			"session": session, "dataset": "flights",
			"input": equivalentPhrasings[0], "method": "this",
		})
	}
	if out, code := ask("p1"); code != http.StatusInternalServerError {
		t.Fatalf("faulted query status = %d, want 500: %v", code, out)
	}
	start := time.Now()
	out, code := ask("p2")
	if code != http.StatusOK {
		t.Fatalf("query after the fault: status %d, want 200: %v", code, out)
	}
	if took := time.Since(start); took > timeout/4 {
		t.Errorf("query after the fault took %v, want well inside the %v deadline", took, timeout)
	}
}

// TestFailedPlanIsBookedAndUndone: a committed query whose scan panics
// answers 500, is booked as failed in /api/stats and /metrics, and takes its
// command back, so a client's retry cannot apply it twice: the session's
// next "drill down" plans the query it would have planned had the failed
// command never been sent.
func TestFailedPlanIsBookedAndUndone(t *testing.T) {
	var armed atomic.Bool
	srv, ts := newFlightsServer(t, core.Config{
		Seed:                 7,
		Clock:                voice.NewSimClock(),
		MaxRoundsPerSentence: 100,
		Percents:             []int{50, 100},
		Scanner: func(tb *table.Table, rng *rand.Rand) table.Scanner {
			if armed.CompareAndSwap(true, false) {
				return faultScanner{}
			}
			return table.NewRandomScanner(tb, rng)
		},
	}, Options{Logf: func(string, ...any) {}})
	var planned []olap.Query
	srv.committed = func(req *request) { planned = append(planned, req.staged.Query()) }
	ask := func(input string) (map[string]any, int) {
		return postQuery(t, ts, map[string]string{
			"session": "f", "dataset": "flights", "input": input, "method": "this",
		})
	}
	if out, code := ask("break down by region"); code != http.StatusOK {
		t.Fatalf("setup query status = %d: %v", code, out)
	}
	armed.Store(true)
	if out, code := ask("break down by airline and season"); code != http.StatusInternalServerError {
		t.Fatalf("faulted query status = %d, want 500: %v", code, out)
	}
	if out, code := ask("drill down"); code != http.StatusOK {
		t.Fatalf("drill down after the fault: status %d: %v", code, out)
	}

	ref, err := srv.datasets["flights"].newSession()
	if err != nil {
		t.Fatal(err)
	}
	for _, input := range []string{"break down by region", "drill down"} {
		if _, err := ref.Parse(input); err != nil {
			t.Fatalf("reference %q: %v", input, err)
		}
	}
	srv.mu.Lock()
	got := planned[len(planned)-1]
	srv.mu.Unlock()
	if !reflect.DeepEqual(got, ref.Query()) {
		t.Errorf("drill down after the failed command planned %+v, want %+v", got, ref.Query())
	}

	resp, err := http.Get(ts.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Serving struct {
			Tenants []map[string]any `json:"tenants"`
		} `json:"serving"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	want := []map[string]any{{"tenant": "f", "served": 2.0, "failed": 1.0}}
	if !reflect.DeepEqual(stats.Serving.Tenants, want) {
		t.Errorf("tenants = %v, want %v", stats.Serving.Tenants, want)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if line := `voiceolap_tenant_failed_total{tenant="f"} 1`; !strings.Contains(rec.Body.String(), line+"\n") {
		t.Errorf("/metrics lacks %q", line)
	}
}
