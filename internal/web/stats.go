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
	var out LogAnalysis
	methods, sessions := map[string]int{}, map[string]int{}
	for _, e := range entries {
		i, ok := methods[e.Method]
		if !ok {
			i, methods[e.Method] = len(out.Methods), len(out.Methods)
			out.Methods = append(out.Methods, MethodStats{Method: e.Method})
		}
		m := &out.Methods[i]
		m.Queries++
		m.AvgChars += len(e.Speech) // a sum until the division below
		m.MaxChars = max(m.MaxChars, len(e.Speech))
		m.AvgLatencyMS += e.LatencyMS
		m.MaxLatencyMS = max(m.MaxLatencyMS, e.LatencyMS)

		j, ok := sessions[e.Session]
		if !ok {
			j, sessions[e.Session] = len(out.Sessions), len(out.Sessions)
			out.Sessions = append(out.Sessions, SessionStats{Session: e.Session, First: e.Time, Last: e.Time})
		}
		ss := &out.Sessions[j]
		ss.Queries++
		if e.Time.Before(ss.First) {
			ss.First = e.Time
		}
		if e.Time.After(ss.Last) {
			ss.Last = e.Time
		}
	}
	for i := range out.Methods {
		m := &out.Methods[i]
		m.AvgChars /= m.Queries
		m.AvgLatencyMS /= float64(m.Queries)
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
