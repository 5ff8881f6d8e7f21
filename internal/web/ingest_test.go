package web

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/speech"
	"repro/internal/voice"
)

// postIngest ships rows to /api/ingest and decodes the reply. It reports a
// transport or decode failure with t.Errorf, so ingesters may run on
// goroutines of their own; a transport failure returns status -1.
func postIngest(t *testing.T, ts *httptest.Server, dataset string, rows []datagen.FlightRow) (map[string]any, int) {
	t.Helper()
	b, _ := json.Marshal(map[string]any{"dataset": dataset, "rows": rows})
	resp, err := http.Post(ts.URL+"/api/ingest", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Errorf("POST /api/ingest: %v", err)
		return nil, -1
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Errorf("decode: %v", err)
	}
	return out, resp.StatusCode
}

// getDatasets fetches /api/datasets and returns the entry for name.
func getDatasets(t *testing.T, ts *httptest.Server, name string) map[string]any {
	t.Helper()
	resp, err := http.Get(ts.URL + "/api/datasets")
	if err != nil {
		t.Fatalf("GET /api/datasets: %v", err)
	}
	defer resp.Body.Close()
	var out []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	for _, d := range out {
		if d["name"] == name {
			return d
		}
	}
	t.Fatalf("dataset %q not listed", name)
	return nil
}

// TestIngestVisibilityAndInvalidation is the end-to-end freshness test:
// rows appended via /api/ingest must be visible to the very next query
// (one epoch bump), and the append must make every cached answer from the
// old epoch unreachable — the next equivalent query recomputes.
func TestIngestVisibilityAndInvalidation(t *testing.T) {
	_, ts := newCacheServer(t, Options{})
	const input = "how does cancellation depend on region and season"

	ask := func(session string) map[string]any {
		out, code := postQuery(t, ts, map[string]string{
			"session": session, "dataset": "flights", "input": input, "method": "this",
		})
		if code != http.StatusOK {
			t.Fatalf("query status = %d: %v", code, out)
		}
		return out
	}

	cold := ask("s0")
	if cold["cache"] != nil {
		t.Fatalf("first query should be cold, got cache=%v", cold["cache"])
	}
	if e := cold["dataEpoch"].(float64); e != 0 {
		t.Fatalf("cold dataEpoch = %v", e)
	}
	if r := cold["tableRows"].(float64); r != 5000 {
		t.Fatalf("cold tableRows = %v", r)
	}
	hit := ask("s1")
	if hit["cache"] != "hit" {
		t.Fatalf("second query should hit, got cache=%v", hit["cache"])
	}

	ack, code := postIngest(t, ts, "flights", datagen.FlightRows(99, 120))
	if code != http.StatusOK {
		t.Fatalf("ingest status = %d: %v", code, ack)
	}
	if ack["appended"].(float64) != 120 || ack["epoch"].(float64) != 1 || ack["totalRows"].(float64) != 5120 {
		t.Fatalf("ingest ack = %v", ack)
	}
	ds := getDatasets(t, ts, "flights")
	if ds["rows"].(float64) != 5120 || ds["epoch"].(float64) != 1 || ds["live"] != true {
		t.Fatalf("dataset listing = %v", ds)
	}

	// The next equivalent query must NOT replay the epoch-0 answer.
	fresh := ask("s2")
	if fresh["cache"] != nil {
		t.Fatalf("post-ingest query replayed a stale answer: cache=%v", fresh["cache"])
	}
	if e := fresh["dataEpoch"].(float64); e != 1 {
		t.Fatalf("post-ingest dataEpoch = %v", e)
	}
	if r := fresh["tableRows"].(float64); r != 5120 {
		t.Fatalf("post-ingest answer computed over %v rows, want 5120", r)
	}
	if fresh["stale"] != nil {
		t.Fatalf("fresh answer flagged stale: %v", fresh)
	}
	// And the recomputed answer is cached at the new epoch.
	rehit := ask("s3")
	if rehit["cache"] != "hit" || rehit["dataEpoch"].(float64) != 1 {
		t.Fatalf("epoch-1 answer not cached: %v", rehit)
	}

	// A windowed phrasing runs against the live marks without error and
	// caches under its own key (distinct from the unwindowed one).
	win, code := postQuery(t, ts, map[string]string{
		"session": "s4", "dataset": "flights",
		"input": input + " in the last hour", "method": "this",
	})
	if code != http.StatusOK {
		t.Fatalf("windowed query status = %d: %v", code, win)
	}
	if win["cache"] != nil {
		t.Fatalf("windowed query must not share the unwindowed key: %v", win["cache"])
	}
}

// TestIngestStampsBaseRowsAtLoad: the base rows arrived when the dataset
// was registered, not with the first batch, so a batch ingested two hours
// after registration is all a one-hour window holds.
func TestIngestStampsBaseRowsAtLoad(t *testing.T) {
	srv, ts := newCacheServer(t, Options{})
	later := time.Now().Add(2 * time.Hour)
	srv.now = func() time.Time { return later }
	if ack, code := postIngest(t, ts, "flights", datagen.FlightRows(3, 10)); code != http.StatusOK {
		t.Fatalf("ingest status = %d: %v", code, ack)
	}
	srv.mu.Lock()
	st := srv.datasets["flights"]
	base, live := st.info.Dataset.Table().NumRows()-10, st.live
	srv.mu.Unlock()
	if got := live.RowsInLast(time.Hour); got != base {
		t.Errorf("the last hour starts at row %d, want %d: the base rows are older than an hour", got, base)
	}
}

func TestIngestValidation(t *testing.T) {
	_, ts := newCacheServer(t, Options{})
	rows := datagen.FlightRows(5, 3)

	if _, code := postIngest(t, ts, "nope", rows); code != http.StatusNotFound {
		t.Fatalf("unknown dataset status = %d", code)
	}
	if _, code := postIngest(t, ts, "flights", nil); code != http.StatusBadRequest {
		t.Fatalf("empty batch status = %d", code)
	}
	bad := rows
	bad[1].Airline = "Air Nowhere"
	if out, code := postIngest(t, ts, "flights", bad); code != http.StatusUnprocessableEntity {
		t.Fatalf("new dict member status = %d: %v", code, out)
	}
	// A rejected batch must not bump the epoch or leak partial rows.
	ds := getDatasets(t, ts, "flights")
	if ds["rows"].(float64) != 5000 || ds["epoch"].(float64) != 0 {
		t.Fatalf("rejected batch mutated the dataset: %v", ds)
	}
}

// TestStaleFlagOnMidAnswerIngest pins the degrade-not-error staleness
// contract: an answer whose dataset accepts a batch between query commit
// and reply is served anyway, flagged stale, with the spoken caveat.
func TestStaleFlagOnMidAnswerIngest(t *testing.T) {
	srv, ts := newCacheServer(t, Options{})
	gate := parkScans(srv)

	type reply struct {
		out  map[string]any
		code int
	}
	done := make(chan reply, 1)
	go func() {
		out, code := postQuery(t, ts, map[string]string{
			"session": "q", "dataset": "flights",
			"input": "how does cancellation depend on region", "method": "this",
		})
		done <- reply{out, code}
	}()

	// Wait until the query is parked at its scan, past its commit (epoch 0
	// captured), land a batch, then let it proceed.
	waitFor(t, gate.parked, "the query's plan at its scan")
	ack, code := postIngest(t, ts, "flights", datagen.FlightRows(17, 25))
	if code != http.StatusOK {
		t.Fatalf("ingest status = %d: %v", code, ack)
	}
	close(gate.release)
	r := <-done
	if r.code != http.StatusOK {
		t.Fatalf("query status = %d: %v", r.code, r.out)
	}
	if r.out["stale"] != true {
		t.Fatalf("mid-answer ingest not flagged: %v", r.out)
	}
	if r.out["staleNote"] != speech.StaleNote {
		t.Fatalf("staleNote = %v", r.out["staleNote"])
	}
	if r.out["dataEpoch"].(float64) != 0 {
		t.Fatalf("dataEpoch = %v, want the epoch the answer was computed at", r.out["dataEpoch"])
	}
	if sp, _ := r.out["speech"].(string); sp == "" {
		t.Fatal("stale answer must still carry the speech (degrade, don't error)")
	}
}

// TestConcurrentIngestAndQuery races streaming appends against queries,
// plain and windowed; run under -race. Every ingest and every query must
// answer 200, and the dataset ends at one epoch per batch with every
// appended row.
func TestConcurrentIngestAndQuery(t *testing.T) {
	const ingesters, batches, batchRows = 2, 15, 20
	_, ts := newCacheServer(t, Options{MaxConcurrent: 64})

	var wg sync.WaitGroup
	for g := 0; g < ingesters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				out, code := postIngest(t, ts, "flights", datagen.FlightRows(int64(g*100+i), batchRows))
				if code != http.StatusOK {
					t.Errorf("ingest status = %d: %v", code, out)
				}
			}
		}(g)
	}
	inputs := []string{
		"how does cancellation depend on region",
		"how does cancellation depend on region and season",
		"how does cancellation depend on region in the last hour",
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				out, code := postQuery(t, ts, map[string]string{
					"session": fmt.Sprintf("q%d", g), "dataset": "flights",
					"input": inputs[(g+i)%len(inputs)], "method": "this",
				})
				if code != http.StatusOK {
					t.Errorf("query status = %d: %v", code, out)
				}
			}
		}(g)
	}
	wg.Wait()
	ds := getDatasets(t, ts, "flights")
	if ds["epoch"].(float64) != ingesters*batches || ds["rows"].(float64) != 5000+ingesters*batches*batchRows {
		t.Errorf("dataset listing = %v, want epoch %d and %d rows", ds, ingesters*batches, 5000+ingesters*batches*batchRows)
	}
}

// streamScript is the cycle every freshness session walks while ingest
// runs: equivalent phrasings (cache pressure), a window that narrows to
// recent data, a windowed re-ask, and the widening back out. Every session
// starts at index 0, so equivalent questions collide in the cache.
var streamScript = []string{
	"how does cancellation depend on region and season",
	"how does cancellation depend on season and region",
	"in the last hour",
	"how does cancellation depend on region and season",
	"all time",
	"how does cancellation depend on airline",
}

// TestIngestFreshnessUnderQueries races six 40-row ingest batches against
// eight sessions of twelve questions with the cache on. Every answer, hit
// or fresh, is computed at or above the highest epoch acknowledged before
// it was asked, over exactly the rows of the epoch it reports; every batch
// lands; and once ingest is quiet an equivalent rephrase replays from the
// cache at the final epoch.
func TestIngestFreshnessUnderQueries(t *testing.T) {
	const sessions, queries, batches, batchRows, baseRows = 8, 12, 6, 40, 5000
	// No round cap: each window runs while its sentence plays on the
	// answer's simulated clock, so a plan is still running when the next
	// batch lands.
	_, ts := newFlightsServer(t, core.Config{Seed: 7, Clock: voice.NewSimClock()}, Options{})
	client := &http.Client{Timeout: 15 * time.Second}

	// acked is the highest acknowledged epoch. The server bumps the epoch
	// before it acknowledges, so a query that read acked before it was sent
	// must be answered at that epoch or a later one.
	var acked, hits atomic.Int64
	check := func(r reply, want int64, input string) {
		if r.code != http.StatusOK {
			t.Errorf("%q: status %d, want 200", input, r.code)
			return
		}
		if r.dataEpoch < want {
			t.Errorf("%q (cache %q): answered at epoch %d after epoch %d was acknowledged",
				input, r.cache, r.dataEpoch, want)
		}
		if rows := baseRows + batchRows*r.dataEpoch; r.tableRows != rows {
			t.Errorf("%q (cache %q): an epoch-%d answer computed over %d rows, want %d",
				input, r.cache, r.dataEpoch, r.tableRows, rows)
		}
		if !inGrammar(r.speech, r.servedBy, r.origin) {
			t.Errorf("%q: speech served by %q (origin %q) out of grammar: %q", input, r.servedBy, r.origin, r.speech)
		}
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for b := range batches {
			ack, code := postIngest(t, ts, "flights", datagen.FlightRows(int64(b)*1009+8, batchRows))
			epoch, ok := ack["epoch"].(float64)
			if code != http.StatusOK || !ok {
				t.Errorf("batch %d: status %d: %v", b, code, ack)
				continue
			}
			acked.Store(int64(epoch))
		}
	}()
	for w := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tenant, session := fmt.Sprintf("tenant-%d", w%4), fmt.Sprintf("stream-%d", w)
			for q := range queries {
				input := streamScript[q%len(streamScript)]
				want := acked.Load()
				r := ask(t, client, ts, tenant, session, input, "this")
				check(r, want, input)
				if r.cache == "hit" || r.cache == "coalesced" {
					hits.Add(1)
				}
			}
		}()
	}
	wg.Wait()

	// Nothing else bumps the epoch, so the last acknowledged one counts the
	// batches that landed.
	final := acked.Load()
	if final != batches {
		t.Errorf("%d of %d batches acknowledged", final, batches)
	}
	if hits.Load() == 0 {
		t.Error("no cache hit while streaming")
	}
	if rows := getDatasets(t, ts, "flights")["rows"].(float64); rows != baseRows+batches*batchRows {
		t.Errorf("/api/datasets lists %v rows, want %d", rows, baseRows+batches*batchRows)
	}

	// Settle: with ingest quiet, a fresh session's equivalent rephrase
	// replays from the cache at the final epoch.
	for i, input := range streamScript[:2] {
		r := ask(t, client, ts, "settle", "stream-settle", input, "this")
		check(r, final, input)
		if i == 1 && (r.cache != "hit" || r.dataEpoch != final) {
			t.Errorf("settle rephrase: cache %q at epoch %d, want a hit at epoch %d", r.cache, r.dataEpoch, final)
		}
	}
}
