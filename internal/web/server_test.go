package web

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/speech"
	"repro/internal/voice"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	flights, err := datagen.Flights(datagen.FlightsConfig{Rows: 10000, Seed: 121})
	if err != nil {
		t.Fatalf("Flights: %v", err)
	}
	salaries, err := datagen.Salaries(datagen.SalariesConfig{Seed: 122})
	if err != nil {
		t.Fatalf("Salaries: %v", err)
	}
	cfg := core.Config{
		Seed:                 1,
		Clock:                voice.NewSimClock(),
		SimRoundCost:         time.Millisecond,
		MaxRoundsPerSentence: 200,
		Percents:             []int{50, 100},
	}
	srv, err := NewServerWith(cfg, Options{},
		DatasetInfo{Name: "flights", Dataset: flights, MeasureCol: "cancelled",
			MeasureDesc: "average cancellation probability", Format: speech.PercentFormat},
		DatasetInfo{Name: "salaries", Dataset: salaries, MeasureCol: "midCareerSalary",
			MeasureDesc: "average mid-career salary", Format: speech.ThousandsFormat},
	)
	if err != nil {
		t.Fatalf("NewServerWith: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func postQuery(t *testing.T, ts *httptest.Server, body map[string]string) (map[string]any, int) {
	t.Helper()
	b, _ := json.Marshal(body)
	resp, err := http.Post(ts.URL+"/api/query", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return out, resp.StatusCode
}

func TestServerValidation(t *testing.T) {
	if _, err := NewServerWith(core.Config{}, Options{}); err == nil {
		t.Error("empty server should fail")
	}
	if _, err := NewServerWith(core.Config{}, Options{}, DatasetInfo{Name: "x"}); err == nil {
		t.Error("nil dataset should fail")
	}
	flights, _ := datagen.Flights(datagen.FlightsConfig{Rows: 100, Seed: 1})
	info := DatasetInfo{Name: "a", Dataset: flights, MeasureCol: "cancelled"}
	if _, err := NewServerWith(core.Config{}, Options{}, info, info); err == nil {
		t.Error("duplicate name should fail")
	}
}

func TestDatasetsEndpoint(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/api/datasets")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	var ds []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&ds); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(ds) != 2 {
		t.Fatalf("datasets = %d, want 2", len(ds))
	}
	if ds[0]["name"] != "flights" || ds[1]["name"] != "salaries" {
		t.Errorf("dataset names = %v", ds)
	}
}

func TestQueryFlow(t *testing.T) {
	ts := newTestServer(t)
	out, code := postQuery(t, ts, map[string]string{
		"session": "w1", "dataset": "flights",
		"input": "break down by region and season", "method": "this",
	})
	if code != http.StatusOK {
		t.Fatalf("status = %d: %v", code, out)
	}
	sp, _ := out["speech"].(string)
	if !strings.Contains(sp, "Considering") {
		t.Errorf("speech = %q", sp)
	}
	if out["latencyMs"] == nil {
		t.Error("latency missing")
	}
	// Holistic answers carry the structured decomposition and SSML.
	structured, _ := out["structured"].(map[string]any)
	if structured == nil || structured["baseline"] == nil {
		t.Errorf("structured speech missing: %v", out["structured"])
	}
	ssml, _ := out["ssml"].(string)
	if !strings.HasPrefix(ssml, "<speak>") {
		t.Errorf("ssml missing: %q", ssml)
	}

	// Session state persists: drill down refers to the prior command.
	out, code = postQuery(t, ts, map[string]string{
		"session": "w1", "dataset": "flights", "input": "drill down", "method": "this",
	})
	if code != http.StatusOK {
		t.Fatalf("drill status = %d: %v", code, out)
	}
	if out["action"] != "drill down" {
		t.Errorf("action = %v", out["action"])
	}
}

func TestQueryPriorMethod(t *testing.T) {
	ts := newTestServer(t)
	out, code := postQuery(t, ts, map[string]string{
		"session": "w2", "dataset": "flights",
		"input": "break down by season", "method": "prior",
	})
	if code != http.StatusOK {
		t.Fatalf("status = %d: %v", code, out)
	}
	sp, _ := out["speech"].(string)
	if !strings.Contains(sp, "Winter") {
		t.Errorf("prior speech should enumerate seasons: %q", sp)
	}
}

func TestQueryHelp(t *testing.T) {
	ts := newTestServer(t)
	out, code := postQuery(t, ts, map[string]string{
		"session": "w3", "dataset": "salaries", "input": "help", "method": "this",
	})
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if out["speech"] != nil && out["speech"] != "" {
		t.Error("help should not vocalize a query")
	}
	msg, _ := out["message"].(string)
	if !strings.Contains(msg, "drill down") {
		t.Errorf("help message = %q", msg)
	}
}

func TestQueryErrors(t *testing.T) {
	ts := newTestServer(t)
	// Missing session.
	_, code := postQuery(t, ts, map[string]string{"dataset": "flights", "input": "help"})
	if code != http.StatusBadRequest {
		t.Errorf("missing session status = %d", code)
	}
	// Unknown dataset.
	_, code = postQuery(t, ts, map[string]string{"session": "x", "dataset": "nope", "input": "help"})
	if code != http.StatusNotFound {
		t.Errorf("unknown dataset status = %d", code)
	}
	// Not understood input.
	_, code = postQuery(t, ts, map[string]string{"session": "x", "dataset": "flights", "input": "zzz qqq"})
	if code != http.StatusUnprocessableEntity {
		t.Errorf("gibberish status = %d", code)
	}
	// Invalid JSON.
	resp, err := http.Post(ts.URL+"/api/query", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON status = %d", resp.StatusCode)
	}
}

func TestQueryLog(t *testing.T) {
	ts := newTestServer(t)
	postQuery(t, ts, map[string]string{
		"session": "logger", "dataset": "flights",
		"input": "break down by season", "method": "this",
	})
	resp, err := http.Get(ts.URL + "/api/log")
	if err != nil {
		t.Fatalf("GET log: %v", err)
	}
	defer resp.Body.Close()
	var log []QueryLogEntry
	if err := json.NewDecoder(resp.Body).Decode(&log); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(log) != 1 {
		t.Fatalf("log entries = %d, want 1", len(log))
	}
	if log[0].Session != "logger" || log[0].Method != "this" || log[0].Speech == "" {
		t.Errorf("log entry = %+v", log[0])
	}
}

func TestIndexPage(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !strings.Contains(buf.String(), "Voice-Based OLAP") {
		t.Error("index page missing title")
	}
	// Unknown paths 404.
	resp2, err := http.Get(ts.URL + "/nope")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path status = %d", resp2.StatusCode)
	}
}

func TestSessionsAreIsolated(t *testing.T) {
	ts := newTestServer(t)
	postQuery(t, ts, map[string]string{
		"session": "a", "dataset": "flights", "input": "break down by region and season", "method": "this",
	})
	// Session b still has the initial single-dimension state; drilling
	// down affects only its own dimension.
	out, code := postQuery(t, ts, map[string]string{
		"session": "b", "dataset": "flights", "input": "drill down", "method": "this",
	})
	if code != http.StatusOK {
		t.Fatalf("status = %d: %v", code, out)
	}
	msg, _ := out["message"].(string)
	if strings.Contains(msg, "season") {
		t.Errorf("session b should not see session a's state: %q", msg)
	}
}
