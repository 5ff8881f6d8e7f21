package web

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/semcache"
	"repro/internal/table"
	"repro/internal/voice"
)

// planGate parks one holistic plan at its scan: parked closes when the plan
// arrives, and the plan goes on once release is closed.
type planGate struct{ parked, release chan struct{} }

// newGatedServer serves 5 000 flights under opts to a small planner whose
// scan, while a planGate is stored in the returned pointer, parks at it;
// the first scan to arrive takes the gate.
func newGatedServer(t *testing.T, opts Options) (*Server, *atomic.Pointer[planGate]) {
	gate := new(atomic.Pointer[planGate])
	srv, _ := newFlightsServer(t, core.Config{
		Seed:                 1,
		Clock:                voice.NewSimClock(),
		MaxRoundsPerSentence: 100,
		Percents:             []int{50, 100},
		Scanner: func(tb *table.Table, rng *rand.Rand) table.Scanner {
			if g := gate.Swap(nil); g != nil {
				close(g.parked)
				<-g.release
			}
			return table.NewRandomScanner(tb, rng)
		},
	}, opts)
	return srv, gate
}

// waitFor fails the test if ch is not closed within ten seconds.
func waitFor(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// query is one question: an input and the vocalizer asked to answer it.
type query struct{ input, method string }

// call is one /api/query request served on its own goroutine, straight
// through the handler, so the reply of a request whose client hung up is
// still recorded (a real connection would just be torn down).
type call struct {
	q        query
	rec      *httptest.ResponseRecorder
	done     chan struct{}
	cancel   context.CancelFunc
	canceled bool
}

// startCall asks q from session through h, as tenant when tenant is set.
// done closes once the reply is written.
func startCall(h http.Handler, session, tenant string, q query) *call {
	body, _ := json.Marshal(map[string]string{
		"session": session, "dataset": "flights", "input": q.input, "method": q.method,
	})
	ctx, cancel := context.WithCancel(context.Background())
	r := httptest.NewRequest("POST", "/api/query", bytes.NewReader(body)).WithContext(ctx)
	if tenant != "" {
		r.Header.Set("X-Tenant", tenant)
	}
	c := &call{q: q, rec: httptest.NewRecorder(), done: make(chan struct{}), cancel: cancel}
	go func() {
		defer close(c.done)
		h.ServeHTTP(c.rec, r)
	}()
	return c
}

// conservationInputs are distinct breakdowns to ask srv about: levels of
// few enough members to plan quickly, alone and in pairs across
// hierarchies, keeping the first input of each canonical query (the parser
// reads some of them as the same query).
func conservationInputs(t *testing.T, srv *Server) []string {
	const ask = "how does cancellation depend on "
	var candidates []string
	for _, a := range []string{"airline", "region", "state", "city", "season", "month"} {
		candidates = append(candidates, ask+a)
		for _, b := range []string{"season", "month", "airline"} {
			candidates = append(candidates, ask+a+" and "+b)
		}
	}
	seen := map[string]bool{}
	var inputs []string
	for _, in := range candidates {
		sess, err := srv.datasets["flights"].newSession()
		if err != nil {
			t.Fatal(err)
		}
		if resp, err := sess.Parse(in); err != nil || !resp.IsQuery {
			continue
		}
		if key := semcache.Key(semcache.Normalize(sess.Query())); !seen[key] {
			seen[key] = true
			inputs = append(inputs, in)
		}
	}
	return inputs
}

// TestOutcomesConservedUnderInterleavings sends seeded random mixes of cold
// queries, repeats, identical queries that coalesce, sheds and client
// cancels at points the test controls (parked at holdVocalize, or waiting
// on a plan parked at its scan) from three tenants to two slots, each mix
// to a server of its own, which it drains at the end. Whatever the
// interleaving, every reply is booked once: each 200 is one Served or
// Cached count and one log entry, each 499 one ClientGone, each 503 one
// Shed; the cache's served paths add up to Cached; each miss the cache
// counts is one vocalizer run (voiceolap_vocalize_latency_seconds_count);
// and no request cancelled before its reply hears a 200.
func TestOutcomesConservedUnderInterleavings(t *testing.T) {
	var total mixOutcomes
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			m := conservationMix(t, seed)
			total.served += m.served
			total.hits += m.hits
			total.coalesced += m.coalesced
			total.gone += m.gone
			total.shed += m.shed
		})
	}
	t.Logf("all mixes: %+v", total)
	// The mixes must have taken every path they are meant to.
	if total.served == 0 || total.hits == 0 || total.coalesced == 0 || total.gone == 0 || total.shed == 0 {
		t.Errorf("mixes too narrow: %+v", total)
	}
}

// mixOutcomes counts one mix's replies by how they were booked.
type mixOutcomes struct{ served, hits, coalesced, gone, shed int64 }

// conservationMix sends one seeded mix and checks what it booked.
func conservationMix(t *testing.T, seed int64) mixOutcomes {
	srv, gate := newGatedServer(t, Options{MaxConcurrent: 2, RequestTimeout: -1})
	h := srv.Handler()
	rng := rand.New(rand.NewSource(seed))
	tenants := []string{"t1", "t2", "t3"}

	var calls []*call
	send := func(q query) *call {
		c := startCall(h, fmt.Sprint("s", len(calls)), tenants[rng.Intn(len(tenants))], q)
		calls = append(calls, c)
		return c
	}
	abort := func(c *call) { c.canceled = true; c.cancel() }
	waitSlots := func(n int) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for srv.adm.InFlight() < n {
			if time.Now().After(deadline) {
				t.Fatalf("%d slots never busy", n)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}

	// cold hands out (input, method) pairs never asked before; answered
	// lists those a 200 has stored, so asking one again is a hit.
	var cold, answered []query
	for _, in := range conservationInputs(t, srv) {
		cold = append(cold, query{in, "this"}, query{in, "prior"})
	}
	rng.Shuffle(len(cold), func(i, j int) { cold[i], cold[j] = cold[j], cold[i] })
	nextCold := func(method string) (query, bool) {
		for i, q := range cold {
			if method == "" || q.method == method {
				cold = append(cold[:i], cold[i+1:]...)
				return q, true
			}
		}
		return query{}, false
	}
	repeat := func() (query, bool) {
		if len(answered) == 0 {
			return query{}, false
		}
		return answered[rng.Intn(len(answered))], true
	}
	finish := func(cs ...*call) {
		t.Helper()
		for _, c := range cs {
			waitFor(t, c.done, "a reply")
			if c.rec.Code == http.StatusOK && !c.canceled {
				answered = append(answered, c.q)
			}
		}
	}

	for round := 0; round < 40; round++ {
		switch rng.Intn(4) {
		case 0: // one cold query or one repeat, alone
			q, ok := repeat()
			if !ok || rng.Intn(2) == 0 {
				if q, ok = nextCold(""); !ok {
					continue
				}
			}
			finish(send(q))
		case 1: // two to four unhooked requests racing for two slots
			q, ok := nextCold("")
			if !ok {
				continue
			}
			var cs []*call
			for i := 2 + rng.Intn(3); i > 0; i-- {
				if r, ok := repeat(); ok && rng.Intn(3) == 0 {
					cs = append(cs, send(r))
				} else {
					cs = append(cs, send(q)) // identical: coalesce or shed
				}
			}
			finish(cs...)
		case 2: // a plan parked at holdVocalize, a hit beside it, maybe a cancel
			q, ok := nextCold("")
			if !ok {
				continue
			}
			hold, parked := make(chan struct{}), make(chan struct{})
			srv.holdVocalize, srv.vocalizeParked = hold, parked
			c := send(q)
			waitFor(t, parked, "a plan at holdVocalize")
			if r, ok := repeat(); ok && rng.Intn(2) == 0 {
				finish(send(r))
			}
			if rng.Intn(3) != 0 {
				abort(c)
			}
			close(hold)
			finish(c)
			srv.holdVocalize, srv.vocalizeParked = nil, nil
		case 3: // a leader parked at its scan, a follower waiting on its plan
			q, ok := nextCold("this")
			if !ok {
				continue
			}
			g := &planGate{parked: make(chan struct{}), release: make(chan struct{})}
			gate.Store(g)
			leader := send(q)
			waitFor(t, g.parked, "a plan at its scan")
			follower := send(q)
			waitSlots(2)
			time.Sleep(2 * time.Millisecond) // let the follower reach the flight
			for i := rng.Intn(3); i > 0; i-- {
				finish(send(q)) // both slots busy: shed
			}
			if rng.Intn(3) == 0 {
				abort(follower)
				finish(follower)
			}
			if rng.Intn(4) == 0 {
				abort(leader)
			}
			close(g.release)
			finish(leader, follower)
		}
	}
	srv.StartDrain()
	for i := 0; i < 3; i++ {
		q, ok := repeat()
		if !ok || i == 0 {
			q = query{"how does cancellation depend on airport", "this"} // never asked: drained
		}
		finish(send(q))
	}

	codes := map[int]int{}
	for i, c := range calls {
		codes[c.rec.Code]++
		if c.canceled && c.rec.Code == http.StatusOK {
			t.Errorf("request %d was cancelled before its reply and heard a 200", i)
		}
	}
	st := srv.servingStats()
	var served, cached, gone, shed int64
	for _, ten := range st.Tenants {
		served += ten.Served
		cached += ten.Cached
		gone += ten.ClientGone
		for _, n := range ten.Shed {
			shed += n
		}
	}
	srv.mu.Lock()
	logged := len(srv.log.snapshot())
	srv.mu.Unlock()
	_, _, runs, _ := srv.latw.quantiles()
	sc := st.SemCache
	t.Logf("%d requests: statuses %v; served %d, cached %d (hit %d, coalesced %d), gone %d, shed %d; %d logged; cache %+v; %d vocalizer runs",
		len(calls), codes, served, cached, sc.HitsServed, sc.CoalescedServed, gone, shed, logged, sc.Answers, runs)

	if n := len(calls) - codes[http.StatusOK] - codes[statusClientClosedRequest] - codes[http.StatusServiceUnavailable]; n != 0 {
		t.Errorf("%d replies were neither 200, 499 nor 503: %v", n, codes)
	}
	if ok := int64(codes[http.StatusOK]); ok != served+cached || ok != int64(logged) {
		t.Errorf("%d replies were 200, Served + Cached = %d + %d, %d log entries", ok, served, cached, logged)
	}
	if n := int64(codes[statusClientClosedRequest]); n != gone {
		t.Errorf("%d replies were 499, ClientGone = %d", n, gone)
	}
	if n := int64(codes[http.StatusServiceUnavailable]); n != shed {
		t.Errorf("%d replies were 503, Shed = %d", n, shed)
	}
	if sc.HitsServed+sc.CoalescedServed != cached {
		t.Errorf("HitsServed %d + CoalescedServed %d != Cached %d", sc.HitsServed, sc.CoalescedServed, cached)
	}
	if sc.Answers.Misses != runs {
		t.Errorf("Answers.Misses = %d, want the %d vocalizer runs", sc.Answers.Misses, runs)
	}
	return mixOutcomes{served, sc.HitsServed, sc.CoalescedServed, gone, shed}
}
