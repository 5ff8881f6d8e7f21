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
	"math/rand"
	"strconv"
	"strings"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/nlq"
	"repro/internal/olap"
	"repro/internal/sampling"
	"repro/internal/semcache"
	"repro/internal/table"
)

// warmViewReservoir is the per-aggregate sample bound for tier-B views;
// generous so warm-start estimates track the cold path's accuracy.
const warmViewReservoir = 256

// datasetState binds a registered dataset to its cache epoch and warm
// session pool. The epoch is part of every cache key, so bumping it on
// reload makes all earlier answers and views unreachable atomically.
type datasetState struct {
	info DatasetInfo
	// epoch counts data changes — whole-dataset reloads and streaming
	// ingest batches; guarded by Server.mu.
	epoch int64
	// live is the appendable copy of the base table, created lazily on
	// the first ingest (copy-on-first-ingest keeps the registered dataset
	// object immutable for whoever else holds it). The pointer is guarded
	// by Server.mu; the table itself synchronizes appends internally.
	live *table.Table
	// pool holds pristine pre-cloned sessions; nil when pooling is off.
	pool *semcache.Pool[*nlq.Session]
}

// newDatasetState builds the state for one dataset, prewarming its
// session pool.
func newDatasetState(info DatasetInfo, poolSize int) (*datasetState, error) {
	st := &datasetState{info: info}
	if poolSize > 0 {
		proto, err := nlq.NewSession(info.Dataset, olap.Avg, info.MeasureCol, info.MeasureDesc)
		if err != nil {
			return nil, err
		}
		pool, err := semcache.NewPool(poolSize, func() (*nlq.Session, error) {
			return proto.Clone(), nil
		})
		if err != nil {
			return nil, err
		}
		st.pool = pool
	}
	return st, nil
}

// newSession checks a session out of the warm pool — restocking a fresh
// clone off the request path — or builds one directly when pooling is
// disabled.
func (st *datasetState) newSession() (*nlq.Session, error) {
	if st.pool == nil {
		return nlq.NewSession(st.info.Dataset, olap.Avg, st.info.MeasureCol, st.info.MeasureDesc)
	}
	sess, err := st.pool.Get()
	if err != nil {
		return nil, err
	}
	go st.pool.Restock()
	return sess, nil
}

// cachedAnswer is a tier-A entry: one finished answer plus the vocalizer
// that produced it.
type cachedAnswer struct {
	voc    vocOut
	origin string
	// warm marks answers planned over a tier-B view. They are served but
	// never stored in tier A: only cold-path answers are replayed, which
	// keeps every cache hit bit-identical to the cold path.
	warm bool
}

// epochPrefix scopes cache keys to (dataset, epoch). ReloadDataset purges
// by the dataset prefix and bumps the epoch, so entries from old data are
// both removed and unreachable.
func epochPrefix(dataset string, epoch int64) string {
	return dataset + "\x00" + strconv.FormatInt(epoch, 10) + "\x00"
}

// answerKey is the tier-A key: (dataset, epoch, vocalizer, canonical
// query). Keying by vocalizer keeps prior and holistic speeches apart.
func answerKey(dataset string, epoch int64, method string, q olap.Query) string {
	return epochPrefix(dataset, epoch) + method + "\x00" + semcache.Key(q)
}

// viewKey is the tier-B key: views depend only on the data subset, not on
// the vocalizer.
func viewKey(dataset string, epoch int64, q olap.Query) string {
	return epochPrefix(dataset, epoch) + "view\x00" + semcache.Key(q)
}

// answerQuery produces the answer for the committed query, consulting the
// semantic caches: tier A replays stored speeches and coalesces identical
// in-flight work (singleflight), tier B warm-starts the planner from a
// prebuilt sample view so even a tier-A miss skips scan cost. Brownout
// and breaker observations happen inside the compute closure, so only
// real vocalizer runs feed the control loops.
func (s *Server) answerQuery(ctx context.Context, req *request, servedBy string, step admission.Step, fallback string) (cachedAnswer, semcache.Outcome, error) {
	// Every vocalizer runs on the canonical query: key equality then
	// implies identical planner input, which is what makes replaying a
	// cached speech sound.
	dataset, epoch, nq := req.Dataset, req.epoch, semcache.Normalize(req.staged.Query())
	compute := func() (cachedAnswer, bool, error) {
		var view *sampling.View
		if servedBy == "this" && s.views != nil && s.cfg.Uncertainty == core.UncertaintyOff {
			if v, ok := s.views.Get(viewKey(dataset, epoch, nq)); ok {
				view = v
			}
		}
		wallStart := time.Now()
		voc, err := s.vocalize(ctx, req.info, nq, servedBy, step, view)
		wall := time.Since(wallStart)
		s.brown.Observe(wall)
		s.latw.observe(wall)
		if req.method == "this" && servedBy == "this" && err == nil {
			// A deadline-degraded answer is the breaker's blowout signal;
			// a client cancellation is not the dataset's fault.
			s.breakers[dataset].Record(voc.degraded && voc.reason == context.DeadlineExceeded.Error())
		}
		if err != nil {
			return cachedAnswer{}, false, err
		}
		warm := view != nil
		if servedBy == "this" && !warm && !voc.degraded && fallback == "" && step == admission.StepFull {
			// A clean cold run anticipates repeats: materialize its sample
			// view in the background for the next equivalent query.
			s.scheduleViewBuild(dataset, epoch, nq)
		}
		ans := cachedAnswer{voc: voc, origin: servedBy, warm: warm}
		// Only clean full-quality answers are memoized. Degraded, reduced-
		// budget, fallback, and warm-start answers are served once and
		// recomputed — no later hit may replay anything below the cold
		// path's quality.
		cacheable := !voc.degraded && fallback == "" && !warm &&
			(servedBy == "prior" || step == admission.StepFull)
		return ans, cacheable, nil
	}
	if s.answers == nil {
		ans, _, err := compute()
		return ans, semcache.Miss, err
	}
	return s.answers.Do(ctx, answerKey(dataset, epoch, servedBy, nq), compute)
}

// viewJob asks the background builder to materialize one sample view.
type viewJob struct {
	dataset string
	epoch   int64
	q       olap.Query
}

// scheduleViewBuild enqueues a tier-B view build, dropping the request if
// the builder is saturated (the next miss reschedules it).
func (s *Server) scheduleViewBuild(dataset string, epoch int64, q olap.Query) {
	if s.views == nil || s.viewJobs == nil {
		return
	}
	if s.views.Contains(viewKey(dataset, epoch, q)) {
		return
	}
	select {
	case s.viewJobs <- viewJob{dataset: dataset, epoch: epoch, q: q}:
	default:
	}
}

// viewBuilder materializes sample views off the request path. A single
// worker: view builds are full scans and must never compete with live
// queries for more than one core.
func (s *Server) viewBuilder() {
	for {
		select {
		case <-s.quit:
			return
		case job := <-s.viewJobs:
			s.buildView(job)
		}
	}
}

// buildView performs one full-scan view build, skipping jobs whose epoch
// is stale by the time the worker reaches them.
func (s *Server) buildView(job viewJob) {
	s.mu.Lock()
	st, ok := s.datasets[job.dataset]
	if !ok || st.epoch != job.epoch {
		s.mu.Unlock()
		return
	}
	d := st.info.Dataset
	s.mu.Unlock()
	key := viewKey(job.dataset, job.epoch, job.q)
	if s.views.Contains(key) {
		return
	}
	space, err := olap.NewSpace(d, job.q)
	if err != nil {
		return
	}
	view, err := sampling.BuildView(space, warmViewReservoir, rand.New(rand.NewSource(s.cfg.Seed+job.epoch)))
	if err != nil {
		return
	}
	s.views.Put(key, view)
}

// ReloadDataset swaps name's bound data in place and bumps its cache
// epoch: answers and views computed against the old data become
// unreachable immediately (and are purged), the warm session pool is
// rebuilt against the new data, and live sessions bound to the old
// dataset are evicted so their next command starts fresh.
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
	info := st.info
	info.Dataset = d
	fresh, err := newDatasetState(info, s.opts.PoolSize)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	st.info = fresh.info
	st.pool = fresh.pool
	st.live = nil
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
	if s.views != nil {
		s.views.PurgePrefix(name + "\x00")
	}
	return nil
}

// Close stops the background view builder. The HTTP handler keeps
// working after Close; cache misses simply stop warming views. Safe to
// call more than once.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		if s.quit != nil {
			close(s.quit)
		}
	})
}

// SemCacheStats reports the semantic cache and warm-pool counters.
type SemCacheStats struct {
	// Answers is the tier-A (speech memoization) cache; Views tier B
	// (warmed sample views).
	Answers       semcache.Stats `json:"answers"`
	AnswerEntries int            `json:"answerEntries"`
	Views         semcache.Stats `json:"views"`
	ViewEntries   int            `json:"viewEntries"`
	// HitsServed / CoalescedServed count requests answered from tier A;
	// WarmServed requests planned over a tier-B view.
	HitsServed      int64 `json:"hitsServed"`
	CoalescedServed int64 `json:"coalescedServed"`
	WarmServed      int64 `json:"warmServed"`
	// Pools maps dataset name to its warm session pool counters.
	Pools map[string]semcache.PoolStats `json:"pools,omitempty"`
}

// semCacheStats snapshots the semantic-cache state; nil when the cache is
// disabled entirely.
func (s *Server) semCacheStats() *SemCacheStats {
	if s.answers == nil && s.views == nil {
		return nil
	}
	out := &SemCacheStats{}
	if s.answers != nil {
		out.Answers = s.answers.Stats()
		out.AnswerEntries = s.answers.Len()
	}
	if s.views != nil {
		out.Views = s.views.Stats()
		out.ViewEntries = s.views.Len()
	}
	c := &s.serving
	c.mu.Lock()
	out.HitsServed = c.cacheHits
	out.CoalescedServed = c.cacheCoalesced
	out.WarmServed = c.cacheWarm
	c.mu.Unlock()
	s.mu.Lock()
	for name, st := range s.datasets {
		if st.pool == nil {
			continue
		}
		if out.Pools == nil {
			out.Pools = make(map[string]semcache.PoolStats)
		}
		out.Pools[name] = st.pool.Stats()
	}
	s.mu.Unlock()
	return out
}
