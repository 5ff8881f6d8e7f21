// Semantic answer caching for the web layer: repeated voice queries are
// the common case in an exploration session (the crowd study's workers
// re-asked equivalent questions with different phrasings), so the server
// memoizes finished answers by canonical query and replays them for free.
//
// Soundness rests on two invariants. First, every vocalizer runs on the
// semcache-normalized query, so canonical-key equality implies identical
// planner input and therefore identical speech under the server's
// deterministic configuration. Second, cache keys embed the dataset
// epoch, which both ReloadDataset and every ingest batch bump before the
// new data is visible — a stale answer can never be served, even to
// requests already in flight.
package web

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/nlq"
	"repro/internal/olap"
	"repro/internal/semcache"
	"repro/internal/table"
)

// datasetState binds a registered dataset to its cache epoch. The epoch is
// part of every cache key, so bumping it on reload makes all earlier
// answers unreachable atomically.
type datasetState struct {
	info DatasetInfo
	// epoch counts data changes — whole-dataset reloads and streaming
	// ingest batches; guarded by Server.mu.
	epoch int64
	// loadedAt is when NewServerWith or ReloadDataset installed the data:
	// the arrival stamp of the base rows once ingest makes the table live.
	// Guarded by Server.mu.
	loadedAt time.Time
	// live is the appendable table over the base table's rows, created
	// lazily on the first ingest. It reads the base's column arrays until
	// its first append copies them and writes only its own, so the
	// registered dataset object stays immutable for whoever else holds it.
	// The pointer is guarded by Server.mu; the table itself synchronizes
	// appends internally.
	live *table.Table
}

// newSession opens a pristine session on the dataset.
func (st *datasetState) newSession() (*nlq.Session, error) {
	return nlq.NewSession(st.info.Dataset, olap.Avg, st.info.MeasureCol, st.info.MeasureDesc)
}

// cachedAnswer is a cache entry: one finished answer plus the vocalizer
// that produced it.
type cachedAnswer struct {
	voc    vocOut
	origin string
}

// epochPrefix scopes cache keys to (dataset, epoch). ReloadDataset purges
// by the dataset prefix and bumps the epoch, so entries from old data are
// both removed and unreachable.
func epochPrefix(dataset string, epoch int64) string {
	return dataset + "\x00" + strconv.FormatInt(epoch, 10) + "\x00"
}

// answerKey is the cache key: (dataset, epoch, vocalizer, canonical
// query). Keying by vocalizer keeps prior and holistic speeches apart.
func answerKey(dataset string, epoch int64, method string, q olap.Query) string {
	return epochPrefix(dataset, epoch) + method + "\x00" + semcache.Key(q)
}

// answerQuery produces the answer for the committed query, consulting the
// semantic cache, which replays stored speeches and coalesces identical
// in-flight work (singleflight). The latency window observes inside the
// compute closure, so it times only real vocalizer runs.
func (s *Server) answerQuery(ctx context.Context, req *request) (cachedAnswer, semcache.Outcome, error) {
	// Every vocalizer runs on the canonical query: key equality then
	// implies identical planner input, which is what makes replaying a
	// cached speech sound.
	method, nq := req.method, semcache.Normalize(req.staged.Query())
	compute := func() (cachedAnswer, bool, error) {
		wallStart := time.Now()
		voc, err := s.vocalize(ctx, req.info, nq, method)
		s.latw.observe(time.Since(wallStart))
		if err != nil {
			return cachedAnswer{}, false, err
		}
		// A deadline-degraded answer is served once and recomputed: no
		// later hit may replay anything shorter than the cold path's answer.
		return cachedAnswer{voc: voc, origin: method}, !voc.degraded, nil
	}
	if s.answers == nil {
		ans, _, err := compute()
		return ans, semcache.Miss, err
	}
	return s.answers.Do(ctx, answerKey(req.Dataset, req.epoch, method, nq), compute)
}

// ReloadDataset swaps name's bound data in place and bumps its cache
// epoch: answers computed against the old data become unreachable
// immediately (and are purged), and live sessions bound to the old dataset
// are evicted so their next command starts fresh.
func (s *Server) ReloadDataset(name string, d *olap.Dataset) error {
	if d == nil {
		return errors.New("web: reload needs a dataset")
	}
	s.mu.Lock()
	st, ok := s.datasets[name]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("web: unknown dataset %q", name)
	}
	st.info.Dataset = d
	st.live = nil
	st.loadedAt = s.now()
	st.epoch++
	for key, el := range s.sessions {
		if strings.HasSuffix(key, "\x00"+name) {
			s.dropSession(el)
		}
	}
	s.mu.Unlock()
	if s.answers != nil {
		s.answers.PurgePrefix(name + "\x00")
	}
	return nil
}

// Close does nothing: the server starts no goroutine of its own. It stays
// because benchmark/server.go:93 and :114 call it; ROADMAP item 1 removes
// all three.
func (s *Server) Close() {}

// SemCacheStats reports the semantic cache's counters.
type SemCacheStats struct {
	// Answers is the cache of finished speeches.
	Answers       semcache.Stats `json:"answers"`
	AnswerEntries int            `json:"answerEntries"`
	// Views is always zero: there is no second cache tier. It stays because
	// benchmark/run.go:173 reads it; ROADMAP item 1 removes both.
	Views semcache.Stats `json:"views"`
	// HitsServed / CoalescedServed count requests answered from the cache.
	HitsServed      int64 `json:"hitsServed"`
	CoalescedServed int64 `json:"coalescedServed"`
}

// semCacheStats snapshots the semantic-cache state; nil when the cache is
// disabled.
func (s *Server) semCacheStats() *SemCacheStats {
	if s.answers == nil {
		return nil
	}
	out := &SemCacheStats{Answers: s.answers.Stats(), AnswerEntries: s.answers.Len()}
	c := &s.serving
	c.mu.Lock()
	out.HitsServed = c.cacheHits
	out.CoalescedServed = c.cacheCoalesced
	c.mu.Unlock()
	return out
}
