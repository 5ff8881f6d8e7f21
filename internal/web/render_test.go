package web

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/encode"
	"repro/internal/olap"
	"repro/internal/semcache"
	"repro/internal/speech"
)

// renderedReply is the part of a /api/query reply rendered from the speech.
type renderedReply struct {
	Speech     string          `json:"speech"`
	Structured json.RawMessage `json:"structured"`
	SSML       string          `json:"ssml"`
	Cache      string          `json:"cache"`
}

// TestReplyPartsMatchFreshRender holds what a reply says, rendered once when
// its answer was planned, to a render made now from a fresh plan of the
// same query: the structured speech byte for byte against
// json.Marshal(encode.EncodeSpeech(sp)), the SSML against
// sp.SSML(speech.DefaultSSMLOptions()), and the text against sp.Text(). It
// covers cold replies, cache hits and replies that coalesced onto another
// request's plan; prior replies carry neither part.
func TestReplyPartsMatchFreshRender(t *testing.T) {
	srv, _ := newCacheServer(t, Options{MaxConcurrent: 8})
	h := srv.Handler()
	info := srv.datasets["flights"].info
	committed := map[string]olap.Query{} // by session, written under srv.mu
	srv.committed = func(req *request) { committed[req.Session] = req.staged.Query() }

	fresh := map[string]*speech.Speech{} // by canonical key
	freshSpeech := func(q olap.Query) *speech.Speech {
		key := semcache.Key(q)
		if sp, ok := fresh[key]; ok {
			return sp
		}
		cfg := srv.cfg
		cfg.Format = info.Format
		out, err := core.NewHolistic(info.Dataset, semcache.Normalize(q), cfg).Vocalize()
		if err != nil {
			t.Fatalf("fresh plan: %v", err)
		}
		fresh[key] = out.Speech
		return out.Speech
	}
	outcomes := map[string]int{}
	check := func(session, input, method string, rec *httptest.ResponseRecorder) {
		t.Helper()
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %q: status %d: %s", session, input, rec.Code, rec.Body)
		}
		var got renderedReply
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatalf("%s %q: %v", session, input, err)
		}
		if got.Speech == "" {
			return // feedback, not an answer
		}
		if method == "prior" {
			if got.Structured != nil || got.SSML != "" {
				t.Errorf("%s %q: a prior reply carries structured %s, ssml %q", session, input, got.Structured, got.SSML)
			}
			return
		}
		outcomes[got.Cache]++
		sp := freshSpeech(committed[session])
		want, _ := json.Marshal(encode.EncodeSpeech(sp))
		if string(got.Structured) != string(want) {
			t.Errorf("%s %q (cache %q): structured\n  %s\nwant\n  %s", session, input, got.Cache, got.Structured, want)
		}
		if wantSSML := sp.SSML(speech.DefaultSSMLOptions()); got.SSML != wantSSML {
			t.Errorf("%s %q (cache %q): ssml\n  %s\nwant\n  %s", session, input, got.Cache, got.SSML, wantSSML)
		}
		if got.Speech != sp.Text() {
			t.Errorf("%s %q (cache %q): speech %q, want %q", session, input, got.Cache, got.Speech, sp.Text())
		}
	}
	script := []struct{ session, input, method string }{
		{"p", "break down by season", "prior"},
		{"c", "break down by region and season", "this"},
		{"c", "only JetBlue Airways flights", "this"},
		{"c", "help", "this"},
		{"c", "back", "this"},
	}
	for _, sess := range []string{"a", "b"} { // a plans, b replays
		for _, in := range hitTurns {
			script = append(script, struct{ session, input, method string }{sess, in, "this"})
		}
	}
	for _, st := range script {
		check(st.session, st.input, st.method, serve(h, st.session, st.input, st.method))
	}

	// Herds of equivalent phrasings: one plans, the others coalesce onto its
	// flight or, arriving after it landed, hit the entry it stored. A
	// follower coalesces only if it reaches the flight before the plan lands,
	// which on a loaded machine a plan of a few milliseconds does not wait
	// for. So the plan parks at its scan until the whole herd holds slots and
	// the followers have had time to get there; the rows, and so the
	// speeches, stay the same.
	herds := [][]string{
		{"how does cancellation depend on season and carrier", "how does cancellation depend on airline and season"},
		{"break down by state and season", "break down by season and state"},
		{"how many flights by region and month", "how many flights by month and region"},
	}
	for i, herd := range herds {
		if i > 0 && outcomes[semcache.Coalesced.String()] > 0 {
			break
		}
		const workers = 4
		gate := parkScans(srv)
		recs := make([]*httptest.ResponseRecorder, workers)
		var wg sync.WaitGroup
		for w := range recs {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				recs[w] = serve(h, fmt.Sprintf("herd%d-%d", i, w), herd[w%len(herd)], "this")
			}(w)
		}
		waitFor(t, gate.parked, "the herd's plan at its scan")
		deadline := time.Now().Add(5 * time.Second)
		for srv.adm.InFlight() < workers && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(50 * time.Millisecond)
		close(gate.release)
		wg.Wait()
		for w, rec := range recs {
			check(fmt.Sprintf("herd%d-%d", i, w), herd[w%len(herd)], "this", rec)
		}
	}
	t.Logf("replies by cache outcome: %v", outcomes)
	for _, o := range []string{"", semcache.Hit.String(), semcache.Coalesced.String()} {
		if outcomes[o] == 0 {
			t.Errorf("no reply with cache outcome %q among %v", o, outcomes)
		}
	}
}

// cloneEncoded deep-copies an encoded speech.
func cloneEncoded(s *encode.Speech) *encode.Speech {
	cp := *s
	if s.Preamble != nil {
		p := *s.Preamble
		p.ScopePhrases, p.LevelNames = slices.Clone(p.ScopePhrases), slices.Clone(p.LevelNames)
		cp.Preamble = &p
	}
	if s.Baseline != nil {
		b := *s.Baseline
		cp.Baseline = &b
	}
	cp.Refinements = slices.Clone(s.Refinements)
	for i := range cp.Refinements {
		cp.Refinements[i].Preds = slices.Clone(cp.Refinements[i].Preds)
	}
	return &cp
}

// TestCachedReplySharedReadOnly: every hit on an entry writes the same
// structured speech and SSML, which all hits share, so none may write to
// them. Sixteen goroutines hit one entry at once (the race detector sees
// any write); afterwards the stored values must equal what they were
// before, and every reply must carry them.
func TestCachedReplySharedReadOnly(t *testing.T) {
	srv, _ := newCacheServer(t, Options{})
	h := srv.Handler()
	var q olap.Query
	srv.committed = func(req *request) { q = req.staged.Query() }
	if rec := serve(h, "cold", equivalentPhrasings[0], "this"); rec.Code != http.StatusOK {
		t.Fatalf("cold: status %d: %s", rec.Code, rec.Body)
	}
	srv.committed = nil
	stored, ok := srv.answers.Get(answerKey("flights", 0, "this", q))
	if !ok || stored.voc.structured == nil || stored.voc.ssml == "" {
		t.Fatalf("no rendered entry stored: %+v", stored.voc)
	}
	before := cloneEncoded(stored.voc.structured)
	wantStructured, _ := json.Marshal(before)

	const goroutines, hitsEach = 16, 8
	var wg sync.WaitGroup
	errs := make(chan string, goroutines*hitsEach)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < hitsEach; i++ {
				in := equivalentPhrasings[(g+i)%len(equivalentPhrasings)]
				rec := serve(h, fmt.Sprintf("g%d-%d", g, i), in, "this")
				var got renderedReply
				if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil || rec.Code != http.StatusOK {
					errs <- fmt.Sprintf("g%d hit %d: status %d, %v: %s", g, i, rec.Code, err, rec.Body)
					continue
				}
				if got.Cache != semcache.Hit.String() || string(got.Structured) != string(wantStructured) || got.SSML != stored.voc.ssml {
					errs <- fmt.Sprintf("g%d hit %d: cache %q, structured %s, ssml %q", g, i, got.Cache, got.Structured, got.SSML)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if !reflect.DeepEqual(stored.voc.structured, before) {
		t.Errorf("the stored structured speech changed under concurrent hits:\n  now %+v\n  was %+v", stored.voc.structured, before)
	}
}
