package web

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/nlq"
	"repro/internal/olap"
	"repro/internal/speech"
	"repro/internal/voice"
)

// queryReq builds one in-memory /api/query call on the flights dataset.
func queryReq(session, input, method string) *http.Request {
	body, _ := json.Marshal(queryRequest{Session: session, Dataset: "flights", Input: input, Method: method})
	return httptest.NewRequest("POST", "/api/query", bytes.NewReader(body))
}

// serve runs one /api/query call through the handler in memory.
func serve(h http.Handler, session, input, method string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, queryReq(session, input, method))
	return rec
}

// hitTurns is a five-turn session as the repeat_zipf workload's clients
// play them; every turn is a query.
var hitTurns = []string{
	"how does cancellation depend on region and carrier",
	"and for winter",
	"how does cancellation depend on season",
	"drill down",
	"how does cancellation depend on airline and region",
}

// hitHarness is a caching server on which one session has planned every
// turn of hitTurns cold, so the same turns in any later session are hits.
// Its query log is a ring of 16, full before anything is measured, as on a
// server that has been up a while: growing the ring is not a hit's cost.
type hitHarness struct {
	tb       testing.TB
	h        http.Handler
	sessions int
}

func newHitHarness(tb testing.TB) *hitHarness {
	srv, _ := newCacheServer(tb, Options{LogCap: 16})
	hh := &hitHarness{tb: tb, h: srv.Handler()}
	for _, in := range hitTurns {
		if rec := serve(hh.h, "s0", in, "this"); rec.Code != http.StatusOK {
			tb.Fatalf("cold %q: status %d: %s", in, rec.Code, rec.Body)
		}
	}
	return hh
}

// fifthTurns opens n new sessions, plays the first four turns in each and
// returns their fifth turns unsent. n must not exceed Options.MaxSessions,
// or the first sessions are evicted before their fifth turn.
func (hh *hitHarness) fifthTurns(n int) []*http.Request {
	reqs := make([]*http.Request, n)
	for i := range reqs {
		hh.sessions++
		session := fmt.Sprintf("s%d", hh.sessions)
		for _, in := range hitTurns[:4] {
			if rec := serve(hh.h, session, in, "this"); rec.Code != http.StatusOK {
				hh.tb.Fatalf("session %s %q: status %d: %s", session, in, rec.Code, rec.Body)
			}
		}
		reqs[i] = queryReq(session, hitTurns[4], "this")
	}
	return reqs
}

// checkHit fails unless rec holds a cache-served speech.
func checkHit(tb testing.TB, rec *httptest.ResponseRecorder) {
	tb.Helper()
	var out queryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || out.Cache != "hit" || out.Speech == "" {
		tb.Fatalf("request was not a cache hit: %v %s", err, rec.Body)
	}
}

// TestCacheHitAllocBudget pins what a cache hit costs: one clone, one
// parse, one commit, and a reply that copies the structured speech and the
// SSML rendered when the answer was planned. The measured request is the
// fifth turn of a five-turn session, a hit like the four before it, counted
// as testing.AllocsPerRun counts (one proc, a warm-up request first). It
// takes about 70 allocations and 5.2 KB. A hit that renders the structured
// speech and SSML again and lowercases every member name takes about 220
// and 11 KB; a second clone or parse per request takes more still.
func TestCacheHitAllocBudget(t *testing.T) {
	if raceDetector {
		t.Skip("the race runtime allocates beside the handler")
	}
	const mallocBudget, byteBudget = 88, 6490 // 1.25x the measured value
	const runs = 200
	hh := newHitHarness(t)
	reqs := hh.fifthTurns(runs + 1)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rec := httptest.NewRecorder()
	hh.h.ServeHTTP(rec, reqs[0])
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, r := range reqs[1:] {
		rec.Body.Reset()
		hh.h.ServeHTTP(rec, r)
	}
	runtime.ReadMemStats(&after)
	checkHit(t, rec)
	mallocs := float64(after.Mallocs-before.Mallocs) / runs
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("a cache hit on a five-turn session allocates %.0f times, %.0f bytes", mallocs, bytes)
	if mallocs > mallocBudget {
		t.Errorf("a cache hit on a five-turn session allocates %.0f times, budget %d", mallocs, mallocBudget)
	}
	if bytes > byteBudget {
		t.Errorf("a cache hit on a five-turn session allocates %.0f bytes, budget %d", bytes, byteBudget)
	}
}

// BenchmarkCacheHit times the hit TestCacheHitAllocBudget counts: the fifth
// turn of a five-turn session, in memory through Handler().ServeHTTP.
// Sessions are prepared outside the timer in batches the session table
// holds.
func BenchmarkCacheHit(b *testing.B) {
	hh := newHitHarness(b)
	rec := httptest.NewRecorder()
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		b.StopTimer()
		reqs := hh.fifthTurns(min(b.N-done, 512))
		b.StartTimer()
		for _, r := range reqs {
			rec.Body.Reset()
			hh.h.ServeHTTP(rec, r)
		}
		done += len(reqs)
	}
	b.StopTimer()
	checkHit(b, rec)
}

// TestRacingCommandsApplyOnceInCommitOrder is the serial-equivalence
// property of the request lifecycle. Goroutines fire random commands —
// queries, navigation, help, nonsense — at a few shared sessions while
// admission is tight enough to shed some and one ingest batch lands
// mid-run. The commit hook gives, per session, the commands in the order
// the server published them (/api/log cannot: it lists spoken answers in
// reply order and leaves feedback commands out). Replaying that order on a
// fresh nlq.Session must reproduce every 200 reply — each reply carries the
// summary of the state its command left — use every reply exactly once,
// and end in the state the table holds. A command applied twice, in part,
// after a refusal, or not at all breaks one of the three. The batch bumps
// the epoch but keeps the sessions, so commits read it in order: no
// command commits at epoch 0 after one has committed at epoch 1.
func TestRacingCommandsApplyOnceInCommitOrder(t *testing.T) {
	srv, _ := newCacheServer(t, Options{MaxConcurrent: 1, QueueDepth: 1})
	h := srv.Handler()
	type commit struct {
		input string
		epoch int64
	}
	commits := map[string][]commit{} // by session key, appended under srv.mu
	srv.committed = func(req *request) {
		commits[req.key] = append(commits[req.key], commit{req.Input, req.epoch})
	}
	commands := []string{
		"how does cancellation depend on region and season", "break down by airline",
		"break down by state", "only flights in winter", "only flights in summer",
		"drill down", "drill down", "roll up", "back", "back", "clear", "reset", "help",
		"how many flights", "average", "remove start airport", "colorless green ideas", "",
	}
	sessions := []string{"a", "b", "c"}
	const workers, perWorker = 8, 60

	// reply is what a 200 told its client.
	type reply struct{ input, action, message string }
	var mu sync.Mutex
	replies := map[string]map[reply]int{}
	refused := map[int]int{}
	for _, session := range sessions {
		replies[session] = map[reply]int{}
	}
	info := srv.datasets["flights"].info
	batch, _ := json.Marshal(map[string]any{"dataset": "flights", "rows": datagen.FlightRows(132, 50)})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				if w == 0 && i == perWorker/2 {
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest("POST", "/api/ingest", bytes.NewReader(batch)))
					if rec.Code != http.StatusOK {
						t.Errorf("ingest status = %d: %s", rec.Code, rec.Body)
					}
				}
				session := sessions[rng.Intn(len(sessions))]
				input := commands[rng.Intn(len(commands))]
				rec := serve(h, session, input, []string{"this", "prior"}[rng.Intn(2)])
				var out queryResponse
				if rec.Code == http.StatusOK {
					if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
						t.Errorf("decode: %v", err)
					}
				}
				mu.Lock()
				if rec.Code == http.StatusOK {
					replies[session][reply{input, out.Action, out.Message}]++
				} else {
					refused[rec.Code]++
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	t.Logf("refusals by status: %v", refused)
	for code, n := range refused {
		if code != http.StatusServiceUnavailable && code != http.StatusUnprocessableEntity {
			t.Errorf("%d replies with unexpected status %d", n, code)
		}
	}
	if refused[http.StatusServiceUnavailable] == 0 || refused[http.StatusUnprocessableEntity] == 0 {
		t.Error("the run should see both sheds and parse refusals")
	}

	srv.mu.Lock()
	defer srv.mu.Unlock()
	ingested := false
	for _, session := range sessions {
		key := session + "\x00flights"
		if len(commits[key]) == 0 {
			t.Fatalf("session %s never committed", session)
		}
		model, err := nlq.NewSession(info.Dataset, olap.Avg, info.MeasureCol, info.MeasureDesc)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range commits[key] {
			if i > 0 && c.epoch < commits[key][i-1].epoch {
				t.Errorf("session %s commit %d: epoch %d after epoch %d", session, i, c.epoch, commits[key][i-1].epoch)
			}
			ingested = ingested || c.epoch == 1
			resp, err := model.Parse(c.input)
			if err != nil {
				t.Fatalf("session %s commit %d: %q was published but does not parse in commit order: %v", session, i, c.input, err)
			}
			r := reply{c.input, resp.Action, resp.Message}
			if replies[session][r] == 0 {
				t.Fatalf("session %s commit %d: no client was told %+v", session, i, r)
			}
			replies[session][r]--
		}
		for r, n := range replies[session] {
			if n != 0 {
				t.Errorf("session %s: %d replies %+v answer no published command", session, n, r)
			}
		}
		if got, want := srv.sessions[key].Value.(*sessionEntry).sess.Summary(), model.Summary(); got != want {
			t.Errorf("session %s ends at\n  %q\nreplay of its commits at\n  %q", session, got, want)
		}
	}
	if !ingested {
		t.Error("no command committed after the ingest batch")
	}
}

// TestServerStartsNoGoroutine: a server is its handler and nothing else.
// Built with the options the benchmark passes, it runs no goroutine after
// construction, after ten first commands have each opened a session, or
// after Close. Requests go through the handler in memory, so the only
// goroutine a failure can count is one the server started.
func TestServerStartsNoGoroutine(t *testing.T) {
	flights, err := datagen.Flights(datagen.FlightsConfig{Rows: 5000, Seed: 131})
	if err != nil {
		t.Fatalf("Flights: %v", err)
	}
	// Goroutines of earlier tests may still be on their way out, so the
	// count can fall below base while this runs; it must not stay above.
	base := runtime.NumGoroutine()
	settled := func(when string) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Errorf("%s: %d goroutines, %d before the server existed", when, n, base)
		}
	}
	srv, err := NewServerWith(core.Config{Seed: 7, Clock: voice.NewSimClock(), MaxRoundsPerSentence: 100, Percents: []int{50, 100}},
		Options{SemCacheViews: 64, PoolSize: 4},
		DatasetInfo{Name: "flights", Dataset: flights, MeasureCol: "cancelled",
			MeasureDesc: "average cancellation probability", Format: speech.PercentFormat},
	)
	if err != nil {
		t.Fatalf("NewServerWith: %v", err)
	}
	settled("after NewServerWith")
	h := srv.Handler()
	for i := 0; i < 10; i++ {
		if rec := serve(h, fmt.Sprintf("g%d", i), "break down by season", "this"); rec.Code != http.StatusOK {
			t.Fatalf("session %d: status %d: %s", i, rec.Code, rec.Body)
		}
	}
	settled("after ten new sessions")
	srv.Close()
	settled("after Close")
}
