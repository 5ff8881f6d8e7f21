package web

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/speech"
	"repro/internal/voice"
)

// waitInFlight blocks until srv holds at least one admission slot.
func waitInFlight(t *testing.T, srv *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for srv.adm.InFlight() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if srv.adm.InFlight() == 0 {
		t.Fatal("no request ever acquired an admission slot")
	}
}

// TestShedLeavesSessionUntouched is the retry-safety guarantee: a 503
// must not have applied the command, or the client's retry would
// double-apply it ("drill down" twice deep).
func TestShedLeavesSessionUntouched(t *testing.T) {
	// Semantic caching off: repeated queries must reach admission here
	// (cache hits are served pre-admission by design).
	srv, ts := newHardenedServer(t, Options{MaxConcurrent: 1, SemCacheEntries: -1})
	// Establish a session with one applied breakdown.
	out, code := postQuery(t, ts, map[string]string{
		"session": "shed", "dataset": "flights",
		"input": "break down by season", "method": "prior",
	})
	if code != http.StatusOK {
		t.Fatalf("setup query status = %d: %v", code, out)
	}

	hold := make(chan struct{})
	srv.holdVocalize = hold
	blockerDone := make(chan int, 1)
	go func() {
		_, code := postQuery(t, ts, map[string]string{
			"session": "blocker", "dataset": "flights",
			"input": "break down by season", "method": "prior",
		})
		blockerDone <- code
	}()
	waitInFlight(t, srv)

	// The saturated server sheds this mutating command with 503.
	out, code = postQuery(t, ts, map[string]string{
		"session": "shed", "dataset": "flights",
		"input": "drill down", "method": "prior",
	})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("saturated drill down status = %d: %v", code, out)
	}

	close(hold)
	if code := <-blockerDone; code != http.StatusOK {
		t.Fatalf("blocker finished with %d", code)
	}

	// The shed must not have drilled: the session still stands at the
	// season breakdown, so "back" undoes exactly that one step and a
	// second "back" finds nothing left — had the shed drill applied,
	// both would succeed.
	out, code = postQuery(t, ts, map[string]string{
		"session": "shed", "dataset": "flights", "input": "back",
	})
	if code != http.StatusOK {
		t.Fatalf("back status = %d: %v", code, out)
	}
	out, code = postQuery(t, ts, map[string]string{
		"session": "shed", "dataset": "flights", "input": "back",
	})
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("second back status = %d: %v; a shed drill down must not have mutated the session",
			code, out)
	}
	msg, _ := out["error"].(string)
	if !strings.Contains(strings.ToLower(msg), "nothing") {
		t.Errorf("second back error = %q, want \"nothing to go back to\"", msg)
	}
}

// TestClientDisconnectIs499 maps a canceled request to 499, not 500.
func TestClientDisconnectIs499(t *testing.T) {
	srv, ts := newHardenedServer(t, Options{MaxConcurrent: 1, QueueDepth: 4})
	hold := make(chan struct{})
	srv.holdVocalize = hold
	blockerDone := make(chan int, 1)
	go func() {
		_, code := postQuery(t, ts, map[string]string{
			"session": "blocker", "dataset": "flights",
			"input": "break down by season", "method": "prior",
		})
		blockerDone <- code
	}()
	waitInFlight(t, srv)

	// A second request queues behind the blocker, then its client hangs
	// up. The handler is invoked directly so the recorder survives the
	// cancellation (a real conn would just be torn down).
	ctx, cancel := context.WithCancel(context.Background())
	body, _ := json.Marshal(map[string]string{
		"session": "gone", "dataset": "flights",
		"input": "break down by season", "method": "prior",
	})
	req := httptest.NewRequest("POST", "/api/query", bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	handlerDone := make(chan struct{})
	go func() {
		srv.Handler().ServeHTTP(rec, req)
		close(handlerDone)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.adm.QueueLen() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if srv.adm.QueueLen() == 0 {
		t.Fatal("second request never queued")
	}
	cancel()
	<-handlerDone
	if rec.Code != statusClientClosedRequest {
		t.Errorf("canceled-while-queued status = %d, want 499", rec.Code)
	}

	close(hold)
	if code := <-blockerDone; code != http.StatusOK {
		t.Errorf("blocker finished with %d", code)
	}

	// The disconnect is bookkept as clientGone, not as a shed or error.
	st := srv.servingStats()
	var gone int64
	for _, ten := range st.Tenants {
		gone += ten.ClientGone
	}
	if gone != 1 {
		t.Errorf("clientGone = %d, want 1; tenants: %+v", gone, st.Tenants)
	}
}

// TestRetryAfterReflectsBreakerCooldown folds an open breaker's remaining
// cooldown into the shed hint instead of the static floor.
func TestRetryAfterReflectsBreakerCooldown(t *testing.T) {
	srv, _ := newHardenedServer(t, Options{
		BreakerThreshold: 1, BreakerCooldown: 30 * time.Second,
	})
	srv.breakers["flights"].Record(true) // trip
	if st := srv.breakers["flights"].State(); st != admission.BreakerOpen {
		t.Fatalf("breaker state = %v, want open", st)
	}
	rec := httptest.NewRecorder()
	srv.writeShed(rec, "flights", http.StatusServiceUnavailable, errInternal)
	ra := rec.Header().Get("Retry-After")
	if ra == "" || ra == "1" {
		t.Fatalf("Retry-After = %q, want the ~30s breaker cooldown", ra)
	}
}

// TestBrownoutLadderEngagesUnderSlowTraffic drives the ladder with a
// latency target no real request can meet and watches it climb from full
// service through reduced budgets and the prior fallback to shedding.
func TestBrownoutLadderEngagesUnderSlowTraffic(t *testing.T) {
	srv, ts := newHardenedServer(t, Options{
		BrownoutTarget: time.Nanosecond,
		BrownoutWindow: 8,
		BrownoutHold:   time.Millisecond,
		// Caching off: the ladder only observes real vocalizer runs, so a
		// repeated query must not short-circuit to a cache hit here.
		SemCacheEntries: -1,
	})
	sawPriorFallback := false
	deadline := time.Now().Add(30 * time.Second)
	for srv.brown.Step() != admission.StepShed {
		if time.Now().After(deadline) {
			t.Fatalf("ladder never topped out; stuck at %v", srv.brown.Step())
		}
		out, code := postQuery(t, ts, map[string]string{
			"session": "brown", "dataset": "flights",
			"input": "break down by season", "method": "this",
		})
		if code != http.StatusOK {
			t.Fatalf("query status = %d: %v", code, out)
		}
		if out["servedBy"] == "prior" && out["fallback"] == "brownout" {
			sawPriorFallback = true
			// The prior grammar: capitalized sentences ending in a period.
			sp, _ := out["speech"].(string)
			if sp == "" || !strings.HasSuffix(strings.TrimSpace(sp), ".") {
				t.Errorf("prior fallback speech looks wrong: %q", sp)
			}
		}
		time.Sleep(2 * time.Millisecond) // let the hold timer expire
	}
	if !sawPriorFallback {
		t.Error("ladder reached shed without ever serving the prior fallback rung")
	}

	// At the top rung queries shed before admission, with Retry-After.
	b, _ := json.Marshal(map[string]string{
		"session": "brown", "dataset": "flights",
		"input": "break down by season", "method": "this",
	})
	resp, err := http.Post(ts.URL+"/api/query", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("browned-out status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("browned-out shed missing Retry-After")
	}

	// Stats surface the ladder: transitions recorded, shed counted.
	st := srv.servingStats()
	if st.Brownout.StepName != "shed" {
		t.Errorf("stats step = %q, want shed", st.Brownout.StepName)
	}
	if st.Brownout.Transitions["reduced"] == 0 || st.Brownout.Transitions["prior"] == 0 {
		t.Errorf("ladder transitions missing intermediate rungs: %v", st.Brownout.Transitions)
	}
	var shed int64
	for _, ten := range st.Tenants {
		shed += ten.Shed["brownout"]
	}
	if shed == 0 {
		t.Error("brownout shed not counted in tenant stats")
	}
}

// TestBreakerTripsToPriorFallback: consecutive deadline blowouts on the
// holistic path trip the dataset breaker; subsequent "this" requests are
// served by the prior baseline until the cooldown's half-open probe.
func TestBreakerTripsToPriorFallback(t *testing.T) {
	srv, ts := newHardenedServer(t, Options{
		RequestTimeout:   time.Nanosecond,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour,
	})
	// Each holistic query blows its nanosecond deadline (degraded answer)
	// and feeds the breaker one blowout.
	for i := 0; i < 2; i++ {
		out, code := postQuery(t, ts, map[string]string{
			"session": "trip", "dataset": "flights",
			"input": "break down by season", "method": "this",
		})
		if code != http.StatusOK {
			t.Fatalf("blowout query %d status = %d: %v", i, code, out)
		}
		if out["degraded"] != true {
			t.Fatalf("blowout query %d not degraded: %v", i, out)
		}
	}
	if st := srv.breakers["flights"].State(); st != admission.BreakerOpen {
		t.Fatalf("breaker state after 2 blowouts = %v, want open", st)
	}
	out, code := postQuery(t, ts, map[string]string{
		"session": "trip", "dataset": "flights",
		"input": "break down by season", "method": "this",
	})
	if code != http.StatusOK {
		t.Fatalf("post-trip query status = %d: %v", code, out)
	}
	if out["servedBy"] != "prior" || out["fallback"] != "breaker" {
		t.Errorf("post-trip query servedBy=%v fallback=%v, want prior/breaker",
			out["servedBy"], out["fallback"])
	}
	// An explicit "prior" request is untouched by the breaker.
	out, _ = postQuery(t, ts, map[string]string{
		"session": "trip", "dataset": "flights",
		"input": "break down by season", "method": "prior",
	})
	if out["fallback"] != nil {
		t.Errorf("explicit prior request reported fallback %v", out["fallback"])
	}
	// Stats expose the open breaker and the fallback count.
	st := srv.servingStats()
	if st.Breakers["flights"] != "open" {
		t.Errorf("stats breaker state = %q, want open", st.Breakers["flights"])
	}
	var fb int64
	for _, ten := range st.Tenants {
		fb += ten.Fallbacks
	}
	if fb == 0 {
		t.Error("breaker fallback not counted in tenant stats")
	}
}

// TestTenantRateLimit429 sheds over-rate tenants with 429 while other
// tenants keep flowing.
func TestTenantRateLimit429(t *testing.T) {
	// Caching off: a cache hit is served before the rate limiter (replays
	// are nearly free), which would turn the expected 429s into 200s.
	_, ts := newHardenedServer(t, Options{TenantRate: 0.0001, TenantBurst: 1, SemCacheEntries: -1})
	out, code := postQuery(t, ts, map[string]string{
		"session": "ratey", "dataset": "flights",
		"input": "break down by season", "method": "prior",
	})
	if code != http.StatusOK {
		t.Fatalf("burst query status = %d: %v", code, out)
	}
	b, _ := json.Marshal(map[string]string{
		"session": "ratey", "dataset": "flights",
		"input": "break down by season", "method": "prior",
	})
	resp, err := http.Post(ts.URL+"/api/query", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("over-rate status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After")
	}
	// A different session is a different tenant with a fresh bucket.
	_, code = postQuery(t, ts, map[string]string{
		"session": "other", "dataset": "flights",
		"input": "break down by season", "method": "prior",
	})
	if code != http.StatusOK {
		t.Errorf("other tenant status = %d, want 200", code)
	}
	// The X-Tenant header overrides the session as the tenant identity.
	req, _ := http.NewRequest("POST", ts.URL+"/api/query", bytes.NewReader(b))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", "ratey")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST with X-Tenant: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("X-Tenant over-rate status = %d, want 429", resp.StatusCode)
	}
}

// TestDrainUnderOverload is satellite 4's web half: StartDrain with a
// full admission queue lets the in-flight request finish with a
// grammar-valid answer while every queued request sheds cleanly.
func TestDrainUnderOverload(t *testing.T) {
	srv, ts := newHardenedServer(t, Options{MaxConcurrent: 1, QueueDepth: 4})
	hold := make(chan struct{})
	srv.holdVocalize = hold

	type result struct {
		out  map[string]any
		code int
	}
	first := make(chan result, 1)
	go func() {
		out, code := postQuery(t, ts, map[string]string{
			"session": "inflight", "dataset": "flights",
			"input": "break down by season", "method": "this",
		})
		first <- result{out, code}
	}()
	waitInFlight(t, srv)

	queued := make(chan int, 3)
	for i := 0; i < 3; i++ {
		go func(i int) {
			_, code := postQuery(t, ts, map[string]string{
				"session": "queued", "dataset": "flights",
				"input": "break down by season", "method": "prior",
			})
			queued <- code
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.adm.QueueLen() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if srv.adm.QueueLen() < 3 {
		t.Fatalf("queue depth = %d, want 3", srv.adm.QueueLen())
	}

	srv.StartDrain()
	for i := 0; i < 3; i++ {
		if code := <-queued; code != http.StatusServiceUnavailable {
			t.Errorf("queued request %d status = %d, want 503", i, code)
		}
	}
	// The in-flight request keeps its slot across the drain and still
	// answers in-grammar.
	close(hold)
	r := <-first
	if r.code != http.StatusOK {
		t.Fatalf("in-flight request status = %d: %v", r.code, r.out)
	}
	sp, _ := r.out["speech"].(string)
	if !(speech.Parser{}).Conforms(sp) {
		t.Errorf("in-flight answer not grammar-valid after drain: %q", sp)
	}
	// New work is refused while draining.
	b, _ := json.Marshal(map[string]string{
		"session": "late", "dataset": "flights",
		"input": "break down by season", "method": "prior",
	})
	resp, err := http.Post(ts.URL+"/api/query", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain status = %d, want 503", resp.StatusCode)
	}
}

// inGrammar checks a speech against the grammar of the vocalizer that
// produced it (origin, for a cache replay): holistic answers parse under the
// speech grammar, the prior's enumeration is well-formed sentences.
func inGrammar(text, servedBy, origin string) bool {
	if servedBy == "cache" {
		servedBy = origin
	}
	if servedBy == "prior" {
		t := strings.TrimSpace(text)
		return t != "" && strings.HasSuffix(t, ".")
	}
	return (speech.Parser{}).Conforms(text)
}

// reply is what a load test keeps of one /api/query call.
type reply struct {
	code       int
	retryAfter string
	speech     string
	servedBy   string
	origin     string
	cache      string
	dataEpoch  int64
	tableRows  int64
}

// ask posts one query as tenant; a transport or decode failure fails the
// test.
func ask(t *testing.T, client *http.Client, ts *httptest.Server, tenant, session, input, method string) reply {
	b, _ := json.Marshal(map[string]string{
		"session": session, "dataset": "flights", "input": input, "method": method,
	})
	req, _ := http.NewRequest("POST", ts.URL+"/api/query", bytes.NewReader(b))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", tenant)
	resp, err := client.Do(req)
	if err != nil {
		t.Errorf("%s %q: transport error: %v", session, input, err)
		return reply{code: -1}
	}
	defer resp.Body.Close()
	var out struct {
		Speech    string `json:"speech"`
		ServedBy  string `json:"servedBy"`
		Origin    string `json:"origin"`
		Cache     string `json:"cache"`
		DataEpoch int64  `json:"dataEpoch"`
		TableRows int64  `json:"tableRows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Errorf("%s %q: status %d, decode: %v", session, input, resp.StatusCode, err)
	}
	return reply{
		code: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After"),
		speech: out.Speech, servedBy: out.ServedBy, origin: out.Origin, cache: out.Cache,
		dataEpoch: out.DataEpoch, tableRows: out.TableRows,
	}
}

// chaosScript is the command cycle every chaos session walks, offset by its
// worker index: breakdowns and drills that vocalize, and navigation that
// takes the non-query path.
var chaosScript = []string{
	"break down by season",
	"drill down",
	"how does cancellation depend on region and season",
	"back",
	"break down by airline",
	"clear",
}

// TestChaosDegradesNeverErrors is the overload contract under storage
// faults: 32 sessions over 8 tenants against four slots and a 16-deep
// queue (more sessions than both hold, so every run sheds), with every 3rd
// scan slowed, every 17th stalled and every 5th cut short, a 1 s deadline,
// a 500 ms brownout target, an armed breaker and no cache to hide behind.
// Every reply is an answer, a parse error, a late request or a refusal
// that says when to retry — never a 5xx — no more than 90% are refused,
// and every speech is in the grammar of the vocalizer that spoke it.
func TestChaosDegradesNeverErrors(t *testing.T) {
	const sessions, tenants = 32, 8
	injector := faults.NewInjector(faults.InjectorOptions{
		SlowEvery: 3, SlowDelay: 200 * time.Microsecond,
		StallEvery: 17, StallRelease: 300 * time.Millisecond,
		FailEvery: 5,
	})
	_, ts := newFlightsServer(t, core.Config{
		Seed:                 1,
		Clock:                voice.NewSimClock(),
		SimRoundCost:         time.Millisecond,
		MaxRoundsPerSentence: 100,
		Percents:             []int{50, 100},
		Scanner:              injector.Scanner,
	}, Options{
		RequestTimeout:   time.Second,
		MaxConcurrent:    4,
		QueueDepth:       16,
		BrownoutTarget:   500 * time.Millisecond,
		BreakerThreshold: 3,
		// The first wave's deadlines pass together and trip the breaker; a
		// short cooldown sends probes at once, so holistic answers keep
		// reading faulted scans for the rest of the run.
		BreakerCooldown: time.Millisecond,
		// A cache hit would skip admission, the ladder and the faulted scan.
		SemCacheEntries: -1,
		Logf:            func(string, ...any) {},
	})
	client := &http.Client{Timeout: 15 * time.Second}

	replies := make([][]reply, sessions)
	var wg sync.WaitGroup
	for w := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tenant, session := fmt.Sprintf("tenant-%d", w%tenants), fmt.Sprintf("chaos-%d", w)
			for q := range chaosScript {
				method := "this"
				if (w+q)%2 == 1 {
					method = "prior"
				}
				replies[w] = append(replies[w], ask(t, client, ts, tenant, session, chaosScript[(w+q)%len(chaosScript)], method))
			}
		}()
	}
	wg.Wait()

	// Shedding is how overload is refused, but a server that sheds nearly
	// everything has stopped serving: at most this share of the requests
	// that reach admission (all but parse errors) may be shed.
	const maxShedRate = 0.9
	status := map[int]int{}
	admitted, spoke, sheds, bare := 0, 0, 0, 0
	for _, rs := range replies {
		for _, r := range rs {
			status[r.code]++
			switch r.code {
			case -1: // a transport error, reported by ask
			case http.StatusUnprocessableEntity:
			case http.StatusOK, http.StatusRequestTimeout:
				admitted++
			case http.StatusTooManyRequests, http.StatusServiceUnavailable:
				sheds++
				if r.retryAfter == "" {
					bare++
				}
			default:
				t.Errorf("status %d: overload must answer, degrade or shed", r.code)
			}
			if r.speech == "" {
				continue
			}
			spoke++
			if !inGrammar(r.speech, r.servedBy, r.origin) {
				t.Errorf("speech served by %q (origin %q) out of grammar: %q", r.servedBy, r.origin, r.speech)
			}
		}
	}
	st := injector.Stats()
	t.Logf("statuses %v, %d spoken, faults %+v", status, spoke, st)
	if sheds == 0 {
		t.Error("nothing was shed, so Retry-After went unchecked")
	} else if bare > 0 {
		t.Errorf("%d of %d sheds carry no Retry-After", bare, sheds)
	}
	if n := admitted + sheds; float64(sheds) > maxShedRate*float64(n) {
		t.Errorf("%d of %d requests shed, more than %.0f%%", sheds, n, 100*maxShedRate)
	}
	if spoke == 0 {
		t.Error("no speech answer under chaos")
	}
	if st.Slowed == 0 || st.Stalled == 0 || st.Failed == 0 {
		t.Errorf("faults %+v: want at least one slowed, stalled and truncated scan", st)
	}
}
