package web

import (
	"net/http"
	"time"
)

// MethodStats aggregates the query log per vocalization method — the
// server-side analysis behind Table 9 ("We analyzed the logs to see
// whether those claims are based on actual tendencies").
type MethodStats struct {
	Method       string  `json:"method"`
	Queries      int     `json:"queries"`
	AvgChars     int     `json:"avgChars"`
	MaxChars     int     `json:"maxChars"`
	AvgLatencyMS float64 `json:"avgLatencyMs"`
	MaxLatencyMS float64 `json:"maxLatencyMs"`
}

// SessionStats summarizes one exploration session.
type SessionStats struct {
	Session string    `json:"session"`
	Queries int       `json:"queries"`
	First   time.Time `json:"first"`
	Last    time.Time `json:"last"`
}

// LogAnalysis is the /api/stats payload.
type LogAnalysis struct {
	Methods  []MethodStats  `json:"methods"`
	Sessions []SessionStats `json:"sessions"`
	// Serving reports the overload state (admission gauges and
	// per-tenant outcomes); nil when the analysis was built from raw log
	// entries outside a live server.
	Serving *ServingStats `json:"serving,omitempty"`
}

// AnalyzeLog aggregates query-log entries by method and session.
func AnalyzeLog(entries []QueryLogEntry) LogAnalysis {
	type acc struct {
		queries  int
		chars    int
		maxChars int
		latency  float64
		maxLat   float64
	}
	methods := map[string]*acc{}
	order := []string{}
	sessions := map[string]*SessionStats{}
	sessionOrder := []string{}
	for _, e := range entries {
		a := methods[e.Method]
		if a == nil {
			a = &acc{}
			methods[e.Method] = a
			order = append(order, e.Method)
		}
		a.queries++
		a.chars += len(e.Speech)
		if len(e.Speech) > a.maxChars {
			a.maxChars = len(e.Speech)
		}
		a.latency += e.LatencyMS
		if e.LatencyMS > a.maxLat {
			a.maxLat = e.LatencyMS
		}

		s := sessions[e.Session]
		if s == nil {
			s = &SessionStats{Session: e.Session, First: e.Time, Last: e.Time}
			sessions[e.Session] = s
			sessionOrder = append(sessionOrder, e.Session)
		}
		s.Queries++
		if e.Time.Before(s.First) {
			s.First = e.Time
		}
		if e.Time.After(s.Last) {
			s.Last = e.Time
		}
	}
	out := LogAnalysis{}
	for _, m := range order {
		a := methods[m]
		out.Methods = append(out.Methods, MethodStats{
			Method:       m,
			Queries:      a.queries,
			AvgChars:     a.chars / a.queries,
			MaxChars:     a.maxChars,
			AvgLatencyMS: a.latency / float64(a.queries),
			MaxLatencyMS: a.maxLat,
		})
	}
	for _, s := range sessionOrder {
		out.Sessions = append(out.Sessions, *sessions[s])
	}
	return out
}

// handleStats serves the aggregated log analysis.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	entries := s.log.snapshot()
	s.mu.Unlock()
	out := AnalyzeLog(entries)
	serving := s.servingStats()
	out.Serving = &serving
	writeJSON(w, http.StatusOK, out)
}
