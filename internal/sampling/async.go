package sampling

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"repro/internal/stats"
	"repro/internal/table"
)

// AsyncSampler fills a cache from a background goroutine, so on a real
// clock the database scan truly overlaps voice output and planning — the
// paper's "processing data in the background".
//
// Locking: mu guards only the cache. The background loop classifies each
// batch into a private WorkerAccumulator *outside* the lock — row
// classification and the measure gather are where an insert's time goes —
// and holds mu just for the journal replay (Cache.MergeWorker, bit-
// identical to inserting the batch directly). Estimate readers therefore
// serialize only behind the short merge, not behind full insert bursts.
// Every formula is the Cache's own, so a drained AsyncSampler equals a
// Sampler over the same stream bit for bit. Lifecycle state (started)
// lives under its own lock so Start/Stop never queue behind a merge.
type AsyncSampler struct {
	mu      sync.Mutex
	cache   *Cache
	scanner table.Scanner
	// staged is the loop-private accumulator; only the background
	// goroutine touches it.
	staged *WorkerAccumulator

	batch    int
	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
	startMu  sync.Mutex
	started  bool
}

// Compile-time check: the async sampler is an Estimator.
var _ Estimator = (*AsyncSampler)(nil)

// NewAsyncSampler takes over the row stream and cache of s (including a
// cache already put in resample mode) and scans them from a background
// goroutine. From here on the caller reaches the cache only through the
// AsyncSampler's locked methods and must not call s.ReadRows. batch is the
// number of rows inserted per lock acquisition (<= 0 selects 256).
func NewAsyncSampler(s *Sampler, batch int) (*AsyncSampler, error) {
	staged, err := NewWorkerAccumulator(s.cache.Space())
	if err != nil {
		return nil, err
	}
	if batch <= 0 {
		batch = 256
	}
	return &AsyncSampler{
		cache:   s.cache,
		scanner: s.scanner,
		staged:  staged,
		batch:   batch,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}, nil
}

// Start launches the background scan. It may be called once.
func (a *AsyncSampler) Start() { a.StartContext(context.Background()) }

// StartContext launches the background scan bound to ctx: the scan halts
// when ctx is cancelled, when Stop is called, or when the table is
// exhausted, whichever comes first. It may be called once.
func (a *AsyncSampler) StartContext(ctx context.Context) {
	a.startMu.Lock()
	if a.started {
		a.startMu.Unlock()
		return
	}
	a.started = true
	a.startMu.Unlock()
	go a.loop(ctx)
}

// loop pulls batches until the table is exhausted, ctx is cancelled, or
// Stop is called.
func (a *AsyncSampler) loop(ctx context.Context) {
	defer close(a.done)
	rows := make([]int, a.batch)
	for {
		select {
		case <-a.stop:
			return
		case <-ctx.Done():
			return
		default:
		}
		n := table.FillBatch(a.scanner, rows)
		if n == 0 {
			return
		}
		// Classify outside the lock; hold mu only for the replay.
		a.staged.InsertBatch(rows[:n])
		a.mu.Lock()
		a.cache.MergeWorker(a.staged)
		a.mu.Unlock()
		a.staged.Reset()
	}
}

// Done is closed when the background scan has ended: table exhausted,
// scanner failed, context cancelled or Stop called. It never closes for a
// sampler that was not started.
func (a *AsyncSampler) Done() <-chan struct{} { return a.done }

// Stop halts the background scan and waits for it to finish. Safe to call
// multiple times, concurrently, and before Start.
func (a *AsyncSampler) Stop() {
	a.startMu.Lock()
	started := a.started
	a.startMu.Unlock()
	a.stopOnce.Do(func() { close(a.stop) })
	if started {
		<-a.done
	}
}

// StopWithin halts the scan like Stop but waits at most grace for the
// goroutine to exit. It returns false when the scan is stuck inside the
// scanner (a hung storage backend): the goroutine is then abandoned — the
// only safe option for a call that never returns — and exits on its own
// if the scanner ever unblocks.
func (a *AsyncSampler) StopWithin(grace time.Duration) bool {
	a.startMu.Lock()
	started := a.started
	a.startMu.Unlock()
	a.stopOnce.Do(func() { close(a.stop) })
	if !started {
		return true
	}
	select {
	case <-a.done:
		return true
	case <-time.After(grace):
		return false
	}
}

// PickAggregate implements Estimator under the sampler's lock.
func (a *AsyncSampler) PickAggregate(rng *rand.Rand) (int, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.cache.PickAggregate(rng)
}

// Estimate implements Estimator under the sampler's lock.
func (a *AsyncSampler) Estimate(agg int, rng *rand.Rand) (float64, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.cache.Estimate(agg, rng)
}

// GrandEstimate returns the whole-scope estimate under the lock.
func (a *AsyncSampler) GrandEstimate() (float64, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.cache.GrandEstimate()
}

// NrRead returns the rows consumed so far.
func (a *AsyncSampler) NrRead() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.cache.NrRead()
}

// NrInScope returns the cached (in-scope) row count so far.
func (a *AsyncSampler) NrInScope() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.cache.NrInScope()
}

// PooledConfidenceInterval proxies the cache's pooled bound under the lock:
// a merge of len(aggs) accumulators, so the scan goroutine's next journal
// replay waits behind it no longer than behind an Estimate.
func (a *AsyncSampler) PooledConfidenceInterval(aggs []int, confidence float64) (stats.Interval, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.cache.PooledConfidenceInterval(aggs, confidence)
}
