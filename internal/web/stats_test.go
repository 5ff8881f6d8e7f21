package web

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"
)

func TestAnalyzeLog(t *testing.T) {
	t0 := time.Date(2019, 6, 30, 21, 33, 0, 0, time.UTC)
	entries := []QueryLogEntry{
		{Time: t0, Session: "a", Method: "this", Spoken: Spoken{Speech: "short answer", LatencyMS: 2}},
		{Time: t0.Add(time.Minute), Session: "a", Method: "prior", Spoken: Spoken{Speech: string(make([]byte, 5000)), LatencyMS: 90}},
		{Time: t0.Add(2 * time.Minute), Session: "b", Method: "this", Spoken: Spoken{Speech: "another short answer!", LatencyMS: 4}},
	}
	a := AnalyzeLog(entries)
	if len(a.Methods) != 2 {
		t.Fatalf("methods = %d", len(a.Methods))
	}
	byMethod := map[string]MethodStats{}
	for _, m := range a.Methods {
		byMethod[m.Method] = m
	}
	this := byMethod["this"]
	if this.Queries != 2 {
		t.Errorf("this queries = %d", this.Queries)
	}
	if this.AvgChars != (len("short answer")+len("another short answer!"))/2 {
		t.Errorf("this avg chars = %d", this.AvgChars)
	}
	if this.MaxLatencyMS != 4 {
		t.Errorf("this max latency = %v", this.MaxLatencyMS)
	}
	prior := byMethod["prior"]
	if prior.MaxChars != 5000 || prior.AvgChars != 5000 {
		t.Errorf("prior chars = %d/%d", prior.AvgChars, prior.MaxChars)
	}
	// Sessions.
	if len(a.Sessions) != 2 {
		t.Fatalf("sessions = %d", len(a.Sessions))
	}
	if a.Sessions[0].Session != "a" || a.Sessions[0].Queries != 2 {
		t.Errorf("session a = %+v", a.Sessions[0])
	}
	if !a.Sessions[0].Last.After(a.Sessions[0].First) {
		t.Error("session time range wrong")
	}
}

func TestAnalyzeLogEmpty(t *testing.T) {
	a := AnalyzeLog(nil)
	if len(a.Methods) != 0 || len(a.Sessions) != 0 {
		t.Error("empty log should aggregate to nothing")
	}
}

func TestStatsEndpoint(t *testing.T) {
	ts := newTestServer(t)
	postQuery(t, ts, map[string]string{
		"session": "s1", "dataset": "flights",
		"input": "break down by season", "method": "this",
	})
	postQuery(t, ts, map[string]string{
		"session": "s1", "dataset": "flights",
		"input": "break down by region", "method": "prior",
	})
	resp, err := http.Get(ts.URL + "/api/stats")
	if err != nil {
		t.Fatalf("GET stats: %v", err)
	}
	defer resp.Body.Close()
	var a LogAnalysis
	if err := json.NewDecoder(resp.Body).Decode(&a); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(a.Methods) != 2 {
		t.Fatalf("methods = %d", len(a.Methods))
	}
	byMethod := map[string]MethodStats{}
	for _, m := range a.Methods {
		byMethod[m.Method] = m
	}
	// The prior enumeration is longer than our capped speech.
	if byMethod["prior"].AvgChars <= byMethod["this"].AvgChars {
		t.Errorf("prior avg %d should exceed this avg %d",
			byMethod["prior"].AvgChars, byMethod["this"].AvgChars)
	}
	if len(a.Sessions) != 1 || a.Sessions[0].Queries != 2 {
		t.Errorf("sessions = %+v", a.Sessions)
	}
}
