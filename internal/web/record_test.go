package web

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/olap"
	"repro/internal/semcache"
)

// timingEntries splits a Server-Timing header into its entries.
func timingEntries(rec *httptest.ResponseRecorder) []string {
	if h := rec.Header().Get("Server-Timing"); h != "" {
		return strings.Split(h, ", ")
	}
	return nil
}

// stageEntries renders the stages that ran as Server-Timing entries, in
// the order handleQuery runs them.
func stageEntries(t StageTimes) []string {
	var out []string
	for _, st := range []struct {
		name string
		ms   float64
	}{{"decode", t.Decode}, {"stage", t.Stage}, {"lookup", t.Lookup}, {"admit", t.Admit}, {"commit", t.Commit}, {"plan", t.Plan}} {
		if st.ms > 0 {
			out = append(out, fmt.Sprintf("%s;dur=%.3f", st.name, st.ms))
		}
	}
	return out
}

// TestServerTimingIsTheRecord: a planned holistic answer's Server-Timing
// lists the stages it ran, in order, then one entry per planning window
// with the rows, rounds and closing reason a fresh core.Holistic plan of the
// same normalized query gives; its /api/log entry carries the same stage
// times, and windows that decode equal to the fresh plan's exported window
// fields. A hit's header and entry have no plan stage and no windows, and a 503
// carries no header. Under -race it also reads /metrics, /api/log and
// /api/stats while a reply writes its record.
func TestServerTimingIsTheRecord(t *testing.T) {
	srv, _ := newCacheServer(t, Options{MaxConcurrent: 1})
	h := srv.Handler()
	var q olap.Query
	srv.committed = func(req *request) { q = req.staged.Query() }
	cold := serve(h, "cold", equivalentPhrasings[0], "this")
	if cold.Code != http.StatusOK {
		t.Fatalf("cold: status %d: %s", cold.Code, cold.Body)
	}
	srv.committed = nil
	cfg := srv.cfg
	info := srv.datasets["flights"].info
	cfg.Format = info.Format
	out, err := core.NewHolistic(info.Dataset, semcache.Normalize(q), cfg).VocalizeContext(context.Background())
	if err != nil {
		t.Fatalf("fresh plan: %v", err)
	}
	var wantWindows []string
	for i, w := range out.Trace.Sentences {
		wantWindows = append(wantWindows, fmt.Sprintf(`w%d;desc="rows=%d rounds=%d closed=%s"`, i+1, w.RowsRead, w.Rounds, w.Closed))
	}
	if len(wantWindows) == 0 {
		t.Fatal("the fresh plan has no windows")
	}
	// The log carries each window's exported fields as JSON does.
	raw, err := json.Marshal(out.Trace.Sentences)
	if err != nil {
		t.Fatal(err)
	}
	var wantLogged []core.SentenceTrace
	if err := json.Unmarshal(raw, &wantLogged); err != nil {
		t.Fatal(err)
	}

	hit := serve(h, "hit", equivalentPhrasings[1], "this")
	if hit.Code != http.StatusOK {
		t.Fatalf("hit: status %d: %s", hit.Code, hit.Body)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/api/log", nil))
	var log []QueryLogEntry
	if err := json.Unmarshal(rec.Body.Bytes(), &log); err != nil || len(log) != 2 {
		t.Fatalf("log: %v, %d entries: %s", err, len(log), rec.Body)
	}
	for _, field := range []string{"sentence", "rounds", "rows", "samples", "leaderReward", "leaderVisits", "planningNs", "closed"} {
		if !strings.Contains(rec.Body.String(), `"`+field+`":`) {
			t.Errorf("the logged windows lack %q: %s", field, rec.Body)
		}
	}

	for _, c := range []struct {
		name    string
		rec     *httptest.ResponseRecorder
		entry   QueryLogEntry
		stages  []string
		windows []string
		logged  []core.SentenceTrace
	}{
		{"cold", cold, log[0], []string{"decode", "stage", "lookup", "admit", "commit", "plan"}, wantWindows, wantLogged},
		{"hit", hit, log[1], []string{"decode", "stage", "lookup", "commit"}, nil, nil},
	} {
		got := timingEntries(c.rec)
		var names []string
		for _, e := range got[:min(len(got), len(c.stages))] {
			names = append(names, e[:strings.IndexByte(e, ';')])
		}
		if !slices.Equal(names, c.stages) {
			t.Errorf("%s: Server-Timing %q, want the stages %v first", c.name, got, c.stages)
			continue
		}
		if w := got[len(c.stages):]; !slices.Equal(w, c.windows) {
			t.Errorf("%s: window entries %q, want %q", c.name, w, c.windows)
		}
		if logged := stageEntries(c.entry.Stages); !slices.Equal(logged, got[:len(c.stages)]) {
			t.Errorf("%s: logged stages %q, header %q", c.name, logged, got[:len(c.stages)])
		}
		var logged []string
		for i, w := range c.entry.Windows {
			logged = append(logged, fmt.Sprintf(`w%d;desc="rows=%d rounds=%d closed=%s"`, i+1, w.RowsRead, w.Rounds, w.Closed))
		}
		if !slices.Equal(logged, c.windows) {
			t.Errorf("%s: logged windows %q, want %q", c.name, logged, c.windows)
		}
		if !reflect.DeepEqual(c.entry.Windows, c.logged) {
			t.Errorf("%s: logged windows\n  %+v\nwant the fresh plan's\n  %+v", c.name, c.entry.Windows, c.logged)
		}
	}

	// The latency quantiles read the plan stage of the one cold entry.
	if lat := srv.servingStats().VocalizeLatencyMS; lat["p50"] != log[0].Stages.Plan || lat["p99"] != log[0].Stages.Plan {
		t.Errorf("vocalizeLatencyMs %v, want the cold plan's %v ms", lat, log[0].Stages.Plan)
	}
	t.Logf("cold: %s", cold.Header().Get("Server-Timing"))

	// A plan parked at its scan holds the only slot: a new query sheds.
	gate := parkScans(srv)
	held := startCall(h, "held", "", query{"break down by season", "this"})
	waitFor(t, gate.parked, "a plan at its scan")
	shed := serve(h, "shed", "break down by region", "this")
	close(gate.release)
	for _, path := range []string{"/metrics", "/api/log", "/api/stats"} { // read while the held reply is written
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", path, nil))
	}
	waitFor(t, held.done, "the held reply")
	if shed.Code != http.StatusServiceUnavailable {
		t.Fatalf("shed: status %d, want 503: %s", shed.Code, shed.Body)
	}
	if got := timingEntries(shed); got != nil {
		t.Errorf("a 503 carries Server-Timing %q", got)
	}
}
