package web

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// latencyWindow keeps a sliding window of vocalize wall latencies so
// /metrics and /api/stats can expose p50/p99.
type latencyWindow struct {
	mu    sync.Mutex
	buf   []time.Duration
	next  int
	count int64
}

// newLatencyWindow returns a window over the last size samples.
func newLatencyWindow(size int) *latencyWindow {
	if size < 1 {
		size = 1
	}
	return &latencyWindow{buf: make([]time.Duration, 0, size)}
}

// observe records one vocalize latency.
func (w *latencyWindow) observe(d time.Duration) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.count++
	if len(w.buf) < cap(w.buf) {
		w.buf = append(w.buf, d)
		return
	}
	w.buf[w.next] = d
	w.next = (w.next + 1) % cap(w.buf)
}

// quantiles returns the p50 and p99 over the window plus the total sample
// count; ok is false while the window is empty.
func (w *latencyWindow) quantiles() (p50, p99 time.Duration, count int64, ok bool) {
	w.mu.Lock()
	sorted := append([]time.Duration(nil), w.buf...)
	count = w.count
	w.mu.Unlock()
	if len(sorted) == 0 {
		return 0, 0, count, false
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	at := func(q float64) time.Duration {
		i := int(q * float64(len(sorted)-1))
		return sorted[i]
	}
	return at(0.50), at(0.99), count, true
}

// handleMetrics serves the serving counters in the Prometheus text
// exposition format (version 0.0.4): everything /api/stats.serving
// reports, flattened into scrapeable gauges and counters, plus the
// semantic-cache counters.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

	stats := s.servingStats()

	writeMetricHeader(w, "voiceolap_inflight", "gauge", "Vocalizations currently holding an admission slot.")
	writeSample(w, "voiceolap_inflight", stats.InFlight)

	writeMetricHeader(w, "voiceolap_tenant_served_total", "counter", "Answered queries per tenant.")
	for _, t := range stats.Tenants {
		writeSample(w, "voiceolap_tenant_served_total", t.Served, "tenant", t.Tenant)
	}
	writeMetricHeader(w, "voiceolap_tenant_shed_total", "counter", "Refused queries per tenant and reason.")
	for _, t := range stats.Tenants {
		for _, reason := range sortedKeys(t.Shed) {
			writeSample(w, "voiceolap_tenant_shed_total", t.Shed[reason], "tenant", t.Tenant, "reason", reason)
		}
	}
	writeMetricHeader(w, "voiceolap_tenant_client_gone_total", "counter", "Requests whose client disconnected first, per tenant.")
	for _, t := range stats.Tenants {
		if t.ClientGone > 0 {
			writeSample(w, "voiceolap_tenant_client_gone_total", t.ClientGone, "tenant", t.Tenant)
		}
	}
	writeMetricHeader(w, "voiceolap_tenant_timed_out_total", "counter", "Requests whose deadline passed while they waited on an identical query's plan, per tenant.")
	for _, t := range stats.Tenants {
		if t.TimedOut > 0 {
			writeSample(w, "voiceolap_tenant_timed_out_total", t.TimedOut, "tenant", t.Tenant)
		}
	}

	writeMetricHeader(w, "voiceolap_ingest_batches_total", "counter", "Accepted streaming ingest batches.")
	writeSample(w, "voiceolap_ingest_batches_total", s.ingestBatches.Load())
	writeMetricHeader(w, "voiceolap_ingest_rows_total", "counter", "Rows appended via streaming ingest.")
	writeSample(w, "voiceolap_ingest_rows_total", s.ingestRows.Load())
	writeMetricHeader(w, "voiceolap_stale_answers_total", "counter", "Answers flagged stale because the dataset epoch advanced mid-answer.")
	writeSample(w, "voiceolap_stale_answers_total", s.staleAnswers.Load())

	if p50, p99, count, ok := s.latw.quantiles(); ok {
		writeMetricHeader(w, "voiceolap_vocalize_latency_seconds", "summary", "Wall-clock vocalize latency over a sliding window.")
		writeSample(w, "voiceolap_vocalize_latency_seconds", p50.Seconds(), "quantile", "0.5")
		writeSample(w, "voiceolap_vocalize_latency_seconds", p99.Seconds(), "quantile", "0.99")
		writeSample(w, "voiceolap_vocalize_latency_seconds_count", count)
	}

	if sc := stats.SemCache; sc != nil {
		writeMetricHeader(w, "voiceolap_semcache_answers_total", "counter", "Semantic answer cache outcomes.")
		writeSample(w, "voiceolap_semcache_answers_total", sc.Answers.Hits, "outcome", "hit")
		writeSample(w, "voiceolap_semcache_answers_total", sc.Answers.Misses, "outcome", "miss")
		writeSample(w, "voiceolap_semcache_answers_total", sc.Answers.Coalesced, "outcome", "coalesced")
		writeSample(w, "voiceolap_semcache_answers_total", sc.Answers.Aborted, "outcome", "aborted")
		writeMetricHeader(w, "voiceolap_semcache_stores_total", "counter", "Answer stores, rejections (uncacheable answers), evictions, and purges.")
		writeSample(w, "voiceolap_semcache_stores_total", sc.Answers.Stores, "event", "stored")
		writeSample(w, "voiceolap_semcache_stores_total", sc.Answers.Rejected, "event", "rejected")
		writeSample(w, "voiceolap_semcache_stores_total", sc.Answers.Evictions, "event", "evicted")
		writeSample(w, "voiceolap_semcache_stores_total", sc.Answers.Purged, "event", "purged")
		writeMetricHeader(w, "voiceolap_semcache_entries", "gauge", "Stored answers.")
		writeSample(w, "voiceolap_semcache_entries", sc.AnswerEntries)
		writeMetricHeader(w, "voiceolap_semcache_served_total", "counter", "Requests answered via the semantic cache, by path.")
		writeSample(w, "voiceolap_semcache_served_total", sc.HitsServed, "path", "hit")
		writeSample(w, "voiceolap_semcache_served_total", sc.CoalescedServed, "path", "coalesced")
	}
}

// writeMetricHeader emits the HELP/TYPE preamble for one metric family.
func writeMetricHeader(w io.Writer, name, typ, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// writeSample emits one sample line; labels alternate names and values.
// An integer value prints as such, a float in %g.
func writeSample(w io.Writer, name string, value any, labels ...string) {
	var b strings.Builder
	b.WriteString(name)
	sep := "{"
	for i := 0; i+1 < len(labels); i += 2 {
		fmt.Fprintf(&b, `%s%s="%s"`, sep, labels[i], escapeLabel(labels[i+1]))
		sep = ","
	}
	if sep == "," {
		b.WriteByte('}')
	}
	fmt.Fprintf(w, "%s %v\n", b.String(), value)
}

// labelEscaper applies the only three escapes the text format 0.0.4 allows
// in a label value.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// escapeLabel makes v safe inside a quoted label value: a client-chosen
// value such as the X-Tenant header may hold any bytes, and one that the
// scraper cannot parse breaks every later scrape. Invalid UTF-8 becomes
// U+FFFD; everything else but backslash, quote and newline passes as is.
func escapeLabel(v string) string {
	return labelEscaper.Replace(strings.ToValidUTF8(v, "\uFFFD"))
}

// sortedKeys returns m's keys in order, for deterministic scrape output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
