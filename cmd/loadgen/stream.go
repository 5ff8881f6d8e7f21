package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/datagen"
	"repro/internal/web"
)

// streamParams bundles the stream workload inputs.
type streamParams struct {
	target         string
	dataset        string
	seed           int64
	sessions       int
	queries        int
	batches        int
	batchRows      int
	ingestInterval time.Duration
	flightRows     int
	maxConcurrent  int
	requestTimeout time.Duration
	clientTimeout  time.Duration
	outPath        string
	assert         bool
}

// streamScript is the cycle every query session walks while ingest runs:
// repeated equivalent phrasings (cache pressure), a window that narrows to
// recent data, a windowed re-ask, and the widening back out. All sessions
// start at index 0 so their window state stays aligned and equivalent
// questions actually collide in the cache.
var streamScript = []string{
	"how does cancellation depend on region and season",
	"how does cancellation depend on season and region",
	"in the last hour",
	"how does cancellation depend on region and season",
	"all time",
	"how does cancellation depend on airline",
}

// ingestAck mirrors the server's /api/ingest acknowledgement.
type ingestAck struct {
	Appended  int   `json:"appended"`
	Epoch     int64 `json:"epoch"`
	TotalRows int   `json:"totalRows"`
}

// postIngest ships one batch of rows to /api/ingest.
func postIngest(client *http.Client, base, dataset string, rows []datagen.FlightRow) (ingestAck, int, error) {
	body, err := json.Marshal(map[string]any{"dataset": dataset, "rows": rows})
	if err != nil {
		return ingestAck{}, 0, err
	}
	resp, err := client.Post(base+"/api/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		return ingestAck{}, 0, err
	}
	defer resp.Body.Close()
	var ack ingestAck
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil && resp.StatusCode == http.StatusOK {
		return ack, resp.StatusCode, err
	}
	return ack, resp.StatusCode, nil
}

// fetchDataset reads one dataset's listing from /api/datasets.
func fetchDataset(client *http.Client, base, name string) (rows int64, epoch int64, err error) {
	resp, err := client.Get(base + "/api/datasets")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var list []struct {
		Name  string `json:"name"`
		Rows  int64  `json:"rows"`
		Epoch int64  `json:"epoch"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return 0, 0, err
	}
	for _, d := range list {
		if d.Name == name {
			return d.Rows, d.Epoch, nil
		}
	}
	return 0, 0, fmt.Errorf("dataset %q not listed", name)
}

// runStream races a streaming ingest feed against concurrent query
// sessions and audits the freshness contract: every answer — cached or
// freshly computed — must be computed at or above the highest ingest epoch
// the client had seen acknowledged when it asked.
func runStream(p streamParams) error {
	if p.dataset != "flights" {
		return fmt.Errorf("the stream workload generates flight rows; -dataset must be flights")
	}
	if p.batches < 1 || p.batchRows < 1 {
		return fmt.Errorf("-batches and -batch-rows must be positive")
	}

	base := p.target
	if base == "" {
		// Semantic cache at server defaults — stale replays are exactly
		// what this workload hunts — and a queue deep enough that clean
		// sheds never muddy the freshness audit.
		srv, ln, serr := startServer(serverConfig{
			seed: p.seed, flightRows: p.flightRows,
			opts: web.Options{
				RequestTimeout: p.requestTimeout,
				MaxConcurrent:  p.maxConcurrent,
				QueueDepth:     2 * p.sessions,
				Logf:           func(string, ...any) {},
			},
		})
		if serr != nil {
			return serr
		}
		defer srv.Close()
		base = "http://" + ln.Addr().String()
		fmt.Printf("in-process server on %s (semantic cache at defaults)\n", base)
	}
	client := &http.Client{Timeout: p.clientTimeout}

	rows0, epoch0, err := fetchDataset(client, base, p.dataset)
	if err != nil {
		return err
	}

	// known tracks the highest acknowledged ingest epoch; ackedRows the
	// row total of the latest acknowledgement. Both are updated by the
	// ingester before any later query reads them, so a query sent after an
	// ack provably races only answers that must include those rows.
	var known atomic.Int64
	var ackedRows atomic.Int64
	known.Store(epoch0)
	ackedRows.Store(rows0)
	var ingestErrs []string
	batchesAcked := 0

	fmt.Printf("streaming %d batches x %d rows against %d sessions x %d queries...\n",
		p.batches, p.batchRows, p.sessions, p.queries)
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for b := 0; b < p.batches; b++ {
			rows := datagen.FlightRows(p.seed+int64(b)*1009+7, p.batchRows)
			ack, code, err := postIngest(client, base, p.dataset, rows)
			switch {
			case err != nil:
				ingestErrs = append(ingestErrs, fmt.Sprintf("batch %d: %v", b, err))
			case code != http.StatusOK:
				ingestErrs = append(ingestErrs, fmt.Sprintf("batch %d: status %d", b, code))
			default:
				batchesAcked++
				for {
					cur := known.Load()
					if ack.Epoch <= cur || known.CompareAndSwap(cur, ack.Epoch) {
						break
					}
				}
				ackedRows.Store(int64(ack.TotalRows))
			}
			time.Sleep(p.ingestInterval)
		}
	}()
	results := make([][]sample, p.sessions)
	for w := 0; w < p.sessions; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			session := fmt.Sprintf("stream-%d", w)
			tenant := fmt.Sprintf("tenant-%d", w%4)
			out := make([]sample, 0, p.queries)
			for q := 0; q < p.queries; q++ {
				want := known.Load()
				s := postQuery(client, base, session, tenant, p.dataset, streamScript[q%len(streamScript)], "this")
				s.wantEpoch = want
				out = append(out, s)
			}
			results[w] = out
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)

	// Settle phase: with ingest quiescent, an equivalent rephrase in a
	// fresh session must replay from the cache at the final epoch — the
	// post-stream steady state works exactly like the static one.
	finalEpoch := known.Load()
	settleA := postQuery(client, base, "stream-settle-a", "bench", p.dataset,
		"how does cancellation depend on region and season", "this")
	settleB := postQuery(client, base, "stream-settle-b", "bench", p.dataset,
		"how does cancellation depend on season and region", "this")
	settleHit := settleB.cache == "hit" || settleB.cache == "coalesced"
	visibleRows, visibleEpoch, err := fetchDataset(client, base, p.dataset)
	if err != nil {
		return err
	}

	report := summarizeStream(results, wall)
	report["ingest"] = map[string]any{
		"batches":      p.batches,
		"batchesAcked": batchesAcked,
		"batchRows":    p.batchRows,
		"startRows":    rows0,
		"startEpoch":   epoch0,
		"ackedRows":    ackedRows.Load(),
		"finalEpoch":   finalEpoch,
		"errors":       ingestErrs,
	}
	report["visibility"] = map[string]any{
		"visibleRows":   visibleRows,
		"visibleEpoch":  visibleEpoch,
		"settleHit":     settleHit,
		"settleEpoch":   settleB.dataEpoch,
		"settleSpoke":   settleA.hasSpeech && settleB.hasSpeech,
		"settleGrammar": settleA.grammarOK && settleB.grammarOK,
		"settleEpochSeen": map[string]int64{
			"a": settleA.dataEpoch, "b": settleB.dataEpoch,
		},
	}
	report["config"] = map[string]any{
		"target": p.target, "sessions": p.sessions, "queries": p.queries,
		"batches": p.batches, "batchRows": p.batchRows,
		"ingestIntervalMs": float64(p.ingestInterval) / float64(time.Millisecond),
		"seed":             p.seed, "flightRows": p.flightRows,
		"maxConcurrent": p.maxConcurrent,
	}
	if serving := fetchServing(client, base); serving != nil {
		report["serving"] = serving
	}

	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(p.outPath, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", p.outPath)
	fmt.Printf("requests=%v ok=%v hits=%v staleCacheReplays=%v freshnessViolations=%v staleFlagged=%v visibleRows=%d finalEpoch=%d\n",
		report["requests"], report["ok"], report["hits"],
		report["staleCacheReplays"], report["freshnessViolations"], report["staleFlagged"],
		visibleRows, finalEpoch)

	if p.assert {
		return assertStream(report, p, rows0)
	}
	return nil
}

// summarizeStream aggregates the query samples, counting the freshness
// failures the workload exists to catch.
func summarizeStream(results [][]sample, wall time.Duration) map[string]any {
	var total, transport, non200, ok, speechOK int
	var hits, misses, degraded, invalid int
	var staleReplays, freshViolations, staleFlagged int
	var hitLat, missLat []time.Duration
	var invalidExamples []string
	status := map[string]int{}
	for _, samples := range results {
		for _, s := range samples {
			total++
			if s.code < 0 {
				transport++
				continue
			}
			status[fmt.Sprintf("%d", s.code)]++
			if s.code != http.StatusOK {
				non200++
				continue
			}
			ok++
			if !s.hasSpeech {
				continue
			}
			speechOK++
			if s.degraded {
				degraded++
			}
			if s.stale {
				staleFlagged++
			}
			if !s.grammarOK {
				invalid++
				if len(invalidExamples) < 3 {
					invalidExamples = append(invalidExamples, s.speech)
				}
			}
			cached := s.cache == "hit" || s.cache == "coalesced"
			// The freshness invariant: an answer sent after the client saw
			// epoch E acknowledged must be computed at epoch >= E — the
			// cache key carries the serve-time epoch and fresh computes
			// capture it at commit, so any violation is a stale read.
			if s.dataEpoch < s.wantEpoch {
				freshViolations++
				if cached {
					staleReplays++
				}
			}
			if cached {
				hits++
				hitLat = append(hitLat, s.wall)
			} else {
				misses++
				missLat = append(missLat, s.wall)
			}
		}
	}
	report := map[string]any{
		"bench":               "stream",
		"num_cpu":             runtime.NumCPU(),
		"gomaxprocs":          runtime.GOMAXPROCS(0),
		"wallMs":              float64(wall) / float64(time.Millisecond),
		"requests":            total,
		"ok":                  ok,
		"non200":              non200,
		"transportErrors":     transport,
		"status":              status,
		"speechAnswers":       speechOK,
		"hits":                hits,
		"misses":              misses,
		"hitRate":             ratio(hits, speechOK),
		"staleCacheReplays":   staleReplays,
		"freshnessViolations": freshViolations,
		"staleFlagged":        staleFlagged,
		"degraded":            degraded,
		"grammarInvalid":      invalid,
		"hitLatencyMs": map[string]float64{
			"p50": quantileMS(hitLat, 0.50),
			"p99": quantileMS(hitLat, 0.99),
		},
		"missLatencyMs": map[string]float64{
			"p50": quantileMS(missLat, 0.50),
			"p99": quantileMS(missLat, 0.99),
		},
	}
	if len(invalidExamples) > 0 {
		report["grammarInvalidExamples"] = invalidExamples
	}
	return report
}

// assertStream enforces the streaming freshness contract on the report.
func assertStream(report map[string]any, p streamParams, rows0 int64) error {
	var violations []string
	if n := report["transportErrors"].(int); n > 0 {
		violations = append(violations, fmt.Sprintf("%d transport errors", n))
	}
	if n := report["non200"].(int); n > 0 {
		violations = append(violations, fmt.Sprintf("%d non-200 query responses (the stream profile never sheds)", n))
	}
	if n := report["staleCacheReplays"].(int); n > 0 {
		violations = append(violations, fmt.Sprintf("%d stale cache replays (cached answer below an acknowledged ingest epoch)", n))
	}
	if n := report["freshnessViolations"].(int); n > 0 {
		violations = append(violations, fmt.Sprintf("%d answers computed below an acknowledged ingest epoch", n))
	}
	if n := report["grammarInvalid"].(int); n > 0 {
		violations = append(violations, fmt.Sprintf("%d grammar-invalid speech answers (ingest must not bend speech)", n))
	}
	if report["speechAnswers"].(int) == 0 {
		violations = append(violations, "no speech answer ever succeeded")
	}
	if report["hits"].(int) == 0 {
		violations = append(violations, "the semantic cache never hit while streaming (repetition workload)")
	}
	ing := report["ingest"].(map[string]any)
	if acked := ing["batchesAcked"].(int); acked != p.batches {
		violations = append(violations, fmt.Sprintf("only %d of %d ingest batches acknowledged: %v",
			acked, p.batches, ing["errors"]))
	}
	vis := report["visibility"].(map[string]any)
	wantRows := rows0 + int64(p.batches*p.batchRows)
	if got := vis["visibleRows"].(int64); got != wantRows {
		violations = append(violations, fmt.Sprintf("visible rows %d, want %d (acked rows never became visible)", got, wantRows))
	}
	if !vis["settleHit"].(bool) {
		violations = append(violations, "post-stream equivalent rephrase did not replay from the cache")
	}
	if !vis["settleSpoke"].(bool) || !vis["settleGrammar"].(bool) {
		violations = append(violations, "post-stream settle queries failed to speak in-grammar")
	}
	if fin := ing["finalEpoch"].(int64); vis["settleEpoch"].(int64) < fin {
		violations = append(violations, fmt.Sprintf("settle answer at epoch %d, want >= final ingest epoch %d",
			vis["settleEpoch"].(int64), fin))
	}
	if len(violations) == 0 {
		fmt.Println("ASSERT OK: zero stale replays, all ingested rows visible, speech in-grammar")
		return nil
	}
	return fmt.Errorf("stream invariants violated:\n  - %s", strings.Join(violations, "\n  - "))
}
