package web

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/speech"
	"repro/internal/table"
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

// TestClientDisconnectIs499: a request whose client hangs up before its
// reply is written gets 499, not 200 or 500, and is booked as gone, not as
// served or shed. Its client hangs up either while the request plans its own
// answer (parked at holdVocalize after its commit), with the cache off and
// on, or while it waits on an identical query's plan through the cache.
func TestClientDisconnectIs499(t *testing.T) {
	for _, c := range []struct {
		name    string
		entries int
	}{{"own-plan/cache-off", -1}, {"own-plan/cache-on", 0}} {
		t.Run(c.name, func(t *testing.T) {
			srv, _ := newHardenedServer(t, Options{SemCacheEntries: c.entries})
			hold, parked := make(chan struct{}), make(chan struct{})
			srv.holdVocalize, srv.vocalizeParked = hold, parked
			c := startCall(srv.Handler(), "gone", "", query{"break down by season", "this"})
			<-parked
			c.cancel()
			close(hold)
			<-c.done
			if c.rec.Code != statusClientClosedRequest {
				t.Errorf("canceled-while-planning status = %d, want 499", c.rec.Code)
			}
			st := srv.servingStats()
			if len(st.Tenants) != 1 || st.Tenants[0].ClientGone != 1 || st.Tenants[0].Served != 0 {
				t.Errorf("tenants = %+v, want one with ClientGone 1 and Served 0", st.Tenants)
			}
			srv.mu.Lock()
			logged := srv.log.snapshot()
			srv.mu.Unlock()
			if len(logged) != 0 {
				t.Errorf("the unheard answer was logged: %+v", logged)
			}
			if sc := st.SemCache; sc != nil && sc.Answers.Stores != 0 {
				t.Errorf("the unheard answer was stored: %+v", sc.Answers)
			}
		})
	}
	t.Run("coalesced-wait", func(t *testing.T) {
		planning, release := make(chan struct{}), make(chan struct{})
		var first sync.Once
		srv, ts := newFlightsServer(t, core.Config{
			Seed:                 1,
			Clock:                voice.NewSimClock(),
			MaxRoundsPerSentence: 100,
			Percents:             []int{50, 100},
			// The first plan stops at its scan until the test releases it.
			Scanner: func(tb *table.Table, rng *rand.Rand) table.Scanner {
				first.Do(func() {
					close(planning)
					<-release
				})
				return table.NewRandomScanner(tb, rng)
			},
		}, Options{MaxConcurrent: 2})
		leaderDone := make(chan int, 1)
		go func() {
			_, code := postQuery(t, ts, map[string]string{
				"session": "leader", "dataset": "flights",
				"input": "break down by season", "method": "this",
			})
			leaderDone <- code
		}()
		<-planning

		// A second session asks the same query, is admitted and waits on the
		// leader's plan, then its client hangs up.
		c := startCall(srv.Handler(), "gone", "", query{"break down by season", "this"})
		deadline := time.Now().Add(5 * time.Second)
		for srv.adm.InFlight() < 2 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if srv.adm.InFlight() < 2 {
			t.Fatal("second request never admitted")
		}
		c.cancel()
		<-c.done
		if c.rec.Code != statusClientClosedRequest {
			t.Errorf("canceled-while-planning status = %d, want 499", c.rec.Code)
		}

		close(release)
		if code := <-leaderDone; code != http.StatusOK {
			t.Errorf("leader finished with %d", code)
		}

		// The disconnect is bookkept as clientGone, not as a shed or error.
		st := srv.servingStats()
		var gone int64
		for _, ten := range st.Tenants {
			gone += ten.ClientGone
			if len(ten.Shed) > 0 {
				t.Errorf("tenant %s shed %v, want no shed", ten.Tenant, ten.Shed)
			}
		}
		if gone != 1 {
			t.Errorf("clientGone = %d, want 1; tenants: %+v", gone, st.Tenants)
		}
	})
}

// TestDeadlineWhileCoalescedIs408: a request whose deadline passes while it
// waits on an identical query's plan, parked at its scan, gets 408 and is
// booked once, as timed out, on its own tenant, in /api/stats and /metrics.
func TestDeadlineWhileCoalescedIs408(t *testing.T) {
	srv, gate := newGatedServer(t, Options{MaxConcurrent: 2, RequestTimeout: 300 * time.Millisecond})
	h := srv.Handler()
	g := &planGate{parked: make(chan struct{}), release: make(chan struct{})}
	gate.Store(g)
	q := query{"break down by season", "this"}
	leader := startCall(h, "leader", "lead", q)
	waitFor(t, g.parked, "the leader's plan at its scan")
	follower := startCall(h, "follower", "follow", q)
	waitFor(t, follower.done, "the follower's reply")
	if follower.rec.Code != http.StatusRequestTimeout {
		t.Errorf("follower status = %d, want 408: %s", follower.rec.Code, follower.rec.Body)
	}
	close(g.release)
	waitFor(t, leader.done, "the leader's reply")
	if leader.rec.Code != http.StatusOK {
		t.Errorf("leader status = %d, want its degraded 200: %s", leader.rec.Code, leader.rec.Body)
	}

	st := srv.servingStats()
	want := []TenantServingStats{{Tenant: "follow", TimedOut: 1}, {Tenant: "lead", Served: 1}}
	if !reflect.DeepEqual(st.Tenants, want) {
		t.Errorf("tenants = %+v, want %+v", st.Tenants, want)
	}
	if a := st.SemCache.Answers.Aborted; a != 1 {
		t.Errorf("cache Aborted = %d, want the follower's 1", a)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if line := `voiceolap_tenant_timed_out_total{tenant="follow"} 1`; !strings.Contains(rec.Body.String(), line+"\n") {
		t.Errorf("/metrics lacks %q", line)
	}
}

// TestTwoPlansParkAtHoldVocalize: two requests reach plan while the test
// holds vocalizations; the first there closes vocalizeParked, neither
// closes it twice, and both are answered once the hold lifts. Under -race
// it holds the hook to the lock plan reads and clears it under.
func TestTwoPlansParkAtHoldVocalize(t *testing.T) {
	srv, _ := newHardenedServer(t, Options{MaxConcurrent: 2, SemCacheEntries: -1})
	hold, parked := make(chan struct{}), make(chan struct{})
	srv.holdVocalize, srv.vocalizeParked = hold, parked
	h := srv.Handler()
	calls := []*call{
		startCall(h, "a", "", query{"break down by season", "this"}),
		startCall(h, "b", "", query{"break down by region", "prior"}),
	}
	waitFor(t, parked, "a plan at holdVocalize")
	// The second request passes the hook whether it parks before the hold
	// lifts or after; nothing orders its access after the first one's.
	close(hold)
	for _, c := range calls {
		<-c.done
		if c.rec.Code != http.StatusOK {
			t.Errorf("%v: status %d, want 200: %s", c.q, c.rec.Code, c.rec.Body)
		}
	}
	srv.mu.Lock()
	left := srv.vocalizeParked
	srv.mu.Unlock()
	if left != nil {
		t.Error("vocalizeParked still armed after a plan reached the hold")
	}
}

// TestRetryAfterHonorsFloor: the hint is admission's constant, in whole
// seconds.
func TestRetryAfterHonorsFloor(t *testing.T) {
	srv, _ := newHardenedServer(t, Options{})
	rec := httptest.NewRecorder()
	srv.writeShed(rec, errInternal)
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("status = %d, want 503", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want the 1s floor", ra)
	}
}

// TestDrainUnderOverload: StartDrain lets the in-flight request finish with
// a grammar-valid answer, and every request that arrives after it sheds
// cleanly as draining although a slot is free.
func TestDrainUnderOverload(t *testing.T) {
	srv, ts := newHardenedServer(t, Options{MaxConcurrent: 2})
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

	srv.StartDrain()
	late := make(chan reply, 3)
	client := &http.Client{Timeout: 15 * time.Second}
	for i := 0; i < 3; i++ {
		go func(i int) {
			late <- ask(t, client, ts, "late", fmt.Sprint("late-", i), "break down by season", "prior")
		}(i)
	}
	for i := 0; i < 3; i++ {
		if r := <-late; r.code != http.StatusServiceUnavailable || r.retryAfter == "" {
			t.Errorf("request %d after the drain: status %d, Retry-After %q; want 503 with a hint", i, r.code, r.retryAfter)
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
	var drained int64
	for _, ten := range srv.servingStats().Tenants {
		drained += ten.Shed["draining"]
	}
	if drained != 3 {
		t.Errorf("%d requests shed as draining, want 3", drained)
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
// faults: 16 sessions over 8 tenants, each walking the script twice,
// against four slots (more sessions than they hold, so every run sheds),
// with every 3rd scan slowed, every 17th stalled and every 5th cut short,
// a 1 s deadline and no cache to hide behind.
// Every reply is an answer, a parse error, a late request or a refusal
// that says when to retry — never a 5xx — no more than 90% are refused,
// and every speech is in the grammar of the vocalizer that spoke it.
func TestChaosDegradesNeverErrors(t *testing.T) {
	// Each session walks the script twice: with no queue, 32 sessions
	// walking it once shed about 80% and admitted so few holistic answers
	// that some runs ended before the 17th scan.
	const sessions, tenants, walks = 16, 8, 2
	var scans atomic.Int64
	injector := faults.NewInjector(faults.InjectorOptions{
		SlowEvery: 3, SlowDelay: 200 * time.Microsecond,
		StallEvery: 17, StallRelease: 300 * time.Millisecond,
		FailEvery: 5,
	})
	_, ts := newFlightsServer(t, core.Config{
		Seed:                 1,
		Clock:                voice.NewSimClock(),
		MaxRoundsPerSentence: 100,
		Percents:             []int{50, 100},
		Scanner: func(tb *table.Table, rng *rand.Rand) table.Scanner {
			scans.Add(1)
			return injector.Scanner(tb, rng)
		},
	}, Options{
		RequestTimeout: time.Second,
		MaxConcurrent:  4,
		// A cache hit would skip admission and the faulted scan.
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
			for q := range walks * len(chaosScript) {
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
	const maxShedShare = 0.9
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
	t.Logf("statuses %v, %d spoken, %d scans", status, spoke, scans.Load())
	if sheds == 0 {
		t.Error("nothing was shed, so Retry-After went unchecked")
	} else if bare > 0 {
		t.Errorf("%d of %d sheds carry no Retry-After", bare, sheds)
	}
	if n := admitted + sheds; float64(sheds) > maxShedShare*float64(n) {
		t.Errorf("%d of %d requests shed, more than %.0f%%", sheds, n, 100*maxShedShare)
	}
	if spoke == 0 {
		t.Error("no speech answer under chaos")
	}
	// The injector faults scan n by the divisors of n, so the 17th scan is
	// the first by which each fault has hit at least once.
	if n := scans.Load(); n < 17 {
		t.Errorf("%d scans: want at least 17, so one was slowed, one stalled and one truncated", n)
	}
}
