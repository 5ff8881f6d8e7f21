package web

import (
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/admission"
)

// latencyWindow keeps a sliding window of vocalize wall latencies so
// /metrics can expose p50/p99 (the brownout ladder only publishes its own
// p99 over its configured window).
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
	fmt.Fprintf(w, "voiceolap_inflight %d\n", stats.InFlight)
	writeMetricHeader(w, "voiceolap_queue_len", "gauge", "Requests waiting in the weighted-fair admission queue.")
	fmt.Fprintf(w, "voiceolap_queue_len %d\n", stats.QueueLen)

	writeMetricHeader(w, "voiceolap_brownout_step", "gauge", "Current brownout ladder step (0=full).")
	fmt.Fprintf(w, "voiceolap_brownout_step %d\n", int(stats.Brownout.Step))
	writeMetricHeader(w, "voiceolap_brownout_p99_seconds", "gauge", "Sliding p99 vocalize latency as seen by the brownout ladder.")
	fmt.Fprintf(w, "voiceolap_brownout_p99_seconds %g\n", stats.Brownout.P99MS/1e3)

	writeMetricHeader(w, "voiceolap_ladder_served_total", "counter", "Answers served, by the brownout step that shaped them.")
	for i := 0; i < admission.NumSteps; i++ {
		if n := stats.LadderServed[admission.Step(i).String()]; n > 0 {
			fmt.Fprintf(w, "voiceolap_ladder_served_total{step=%q} %d\n", admission.Step(i).String(), n)
		}
	}

	writeMetricHeader(w, "voiceolap_breaker_open", "gauge", "Per-dataset circuit breaker state (0=closed, 1=open, 0.5=half-open).")
	for _, name := range sortedKeys(stats.Breakers) {
		v := 0.0
		switch stats.Breakers[name] {
		case "open":
			v = 1
		case "half-open":
			v = 0.5
		}
		fmt.Fprintf(w, "voiceolap_breaker_open{dataset=%q} %g\n", name, v)
	}

	writeMetricHeader(w, "voiceolap_tenant_served_total", "counter", "Answered queries per tenant.")
	for _, t := range stats.Tenants {
		fmt.Fprintf(w, "voiceolap_tenant_served_total{tenant=%q} %d\n", t.Tenant, t.Served)
	}
	writeMetricHeader(w, "voiceolap_tenant_shed_total", "counter", "Refused queries per tenant and reason.")
	for _, t := range stats.Tenants {
		for _, reason := range sortedKeys(t.Shed) {
			fmt.Fprintf(w, "voiceolap_tenant_shed_total{tenant=%q,reason=%q} %d\n", t.Tenant, reason, t.Shed[reason])
		}
	}
	writeMetricHeader(w, "voiceolap_tenant_browned_out_total", "counter", "Answers served below full quality per tenant.")
	for _, t := range stats.Tenants {
		if t.BrownedOut > 0 {
			fmt.Fprintf(w, "voiceolap_tenant_browned_out_total{tenant=%q} %d\n", t.Tenant, t.BrownedOut)
		}
	}
	writeMetricHeader(w, "voiceolap_tenant_fallbacks_total", "counter", "Answers rerouted to the prior vocalizer per tenant.")
	for _, t := range stats.Tenants {
		if t.Fallbacks > 0 {
			fmt.Fprintf(w, "voiceolap_tenant_fallbacks_total{tenant=%q} %d\n", t.Tenant, t.Fallbacks)
		}
	}
	writeMetricHeader(w, "voiceolap_tenant_client_gone_total", "counter", "Requests whose client disconnected first, per tenant.")
	for _, t := range stats.Tenants {
		if t.ClientGone > 0 {
			fmt.Fprintf(w, "voiceolap_tenant_client_gone_total{tenant=%q} %d\n", t.Tenant, t.ClientGone)
		}
	}

	writeMetricHeader(w, "voiceolap_ingest_batches_total", "counter", "Accepted streaming ingest batches.")
	fmt.Fprintf(w, "voiceolap_ingest_batches_total %d\n", s.ingestBatches.Load())
	writeMetricHeader(w, "voiceolap_ingest_rows_total", "counter", "Rows appended via streaming ingest.")
	fmt.Fprintf(w, "voiceolap_ingest_rows_total %d\n", s.ingestRows.Load())
	writeMetricHeader(w, "voiceolap_stale_answers_total", "counter", "Answers flagged stale because the dataset epoch advanced mid-answer.")
	fmt.Fprintf(w, "voiceolap_stale_answers_total %d\n", s.staleAnswers.Load())

	if p50, p99, count, ok := s.latw.quantiles(); ok {
		writeMetricHeader(w, "voiceolap_vocalize_latency_seconds", "summary", "Wall-clock vocalize latency over a sliding window.")
		fmt.Fprintf(w, "voiceolap_vocalize_latency_seconds{quantile=\"0.5\"} %g\n", p50.Seconds())
		fmt.Fprintf(w, "voiceolap_vocalize_latency_seconds{quantile=\"0.99\"} %g\n", p99.Seconds())
		fmt.Fprintf(w, "voiceolap_vocalize_latency_seconds_count %d\n", count)
	}

	if sc := s.semCacheStats(); sc != nil {
		writeMetricHeader(w, "voiceolap_semcache_answers_total", "counter", "Semantic answer cache outcomes.")
		fmt.Fprintf(w, "voiceolap_semcache_answers_total{outcome=\"hit\"} %d\n", sc.Answers.Hits)
		fmt.Fprintf(w, "voiceolap_semcache_answers_total{outcome=\"miss\"} %d\n", sc.Answers.Misses)
		fmt.Fprintf(w, "voiceolap_semcache_answers_total{outcome=\"coalesced\"} %d\n", sc.Answers.Coalesced)
		fmt.Fprintf(w, "voiceolap_semcache_answers_total{outcome=\"aborted\"} %d\n", sc.Answers.Aborted)
		writeMetricHeader(w, "voiceolap_semcache_stores_total", "counter", "Answer stores, rejections (uncacheable answers), evictions, and purges.")
		fmt.Fprintf(w, "voiceolap_semcache_stores_total{event=\"stored\"} %d\n", sc.Answers.Stores)
		fmt.Fprintf(w, "voiceolap_semcache_stores_total{event=\"rejected\"} %d\n", sc.Answers.Rejected)
		fmt.Fprintf(w, "voiceolap_semcache_stores_total{event=\"evicted\"} %d\n", sc.Answers.Evictions)
		fmt.Fprintf(w, "voiceolap_semcache_stores_total{event=\"purged\"} %d\n", sc.Answers.Purged)
		writeMetricHeader(w, "voiceolap_semcache_entries", "gauge", "Stored answers.")
		fmt.Fprintf(w, "voiceolap_semcache_entries %d\n", sc.AnswerEntries)
		writeMetricHeader(w, "voiceolap_semcache_served_total", "counter", "Requests answered via the semantic cache, by path.")
		fmt.Fprintf(w, "voiceolap_semcache_served_total{path=\"hit\"} %d\n", sc.HitsServed)
		fmt.Fprintf(w, "voiceolap_semcache_served_total{path=\"coalesced\"} %d\n", sc.CoalescedServed)
	}
}

// writeMetricHeader emits the HELP/TYPE preamble for one metric family.
func writeMetricHeader(w http.ResponseWriter, name, typ, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
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
