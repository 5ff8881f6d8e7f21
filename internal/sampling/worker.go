package sampling

import (
	"context"
	"sync/atomic"

	"repro/internal/freelist"
	"repro/internal/stats"
	"repro/internal/table"
)

// A started sampler's row worker classifies the stream chunkRows rows at a
// time into a ring of ringChunks chunks. A planning round reads 64 rows, so
// the planner folds one chunk per round, and an answer's initial batch of
// 4 096 rows is the whole ring.
const (
	chunkRows  = 64
	ringChunks = 64
)

// chunk is chunkRows rows of the stream after classify: each row's aggregate
// (-1 out of scope), each in-scope row's measure, and the grand moments
// through the chunk's last row.
type chunk struct {
	n     int
	idx   [chunkRows]int32
	vals  [chunkRows]float64
	grand stats.Accumulator
}

// ring is a started sampler's row worker: the chunks it hands the planner,
// and its own classifier and grand chain. The worker writes a chunk, then
// publishes it by advancing head; the planner folds it, then frees it by
// advancing tail. The worker parks only when every chunk is full and is
// woken when half are free; the planner parks only when none is, and wakes
// for ctx too.
type ring struct {
	chunks [ringChunks]chunk
	// rows is the worker's scan buffer.
	rows [chunkRows]int
	cls  classifier
	// grand is the worker's grand chain: the moments of every in-scope row
	// it classified, in row order.
	grand stats.Accumulator

	head atomic.Int64
	_    [56]byte
	tail atomic.Int64
	_    [56]byte
	// off is the planner's: the rows of the chunk at tail it has folded.
	off int
	// done is set once the worker published its last chunk; if the worker
	// panicked, panicked holds the value the planner panics with.
	done     atomic.Bool
	panicked any
	stop     atomic.Bool
	// A party about to wait sets its parked flag, checks again, then
	// receives; the other party clears the flag and sends. A wake-up that
	// finds its waiter gone stays in the channel, even into the ring's next
	// use, and costs a later wait one more check.
	workerParked, plannerParked atomic.Bool
	wakeWorker, wakePlanner     chan struct{}
	// exited receives once when the worker returns.
	exited chan struct{}
}

// rings holds the rings of stopped workers.
var rings = freelist.New[ring]()

// Start starts the sampler's row worker, which from now on reads the stream
// on a goroutine of its own and classifies it ahead of ReadRows. The cache
// folds what the worker classified, row for row what InsertBatch would
// have done with the same rows, so the cache ends bit for bit the same.
// Nothing else may insert into the cache until Stop, which every Start
// needs: the worker runs until Stop or the stream's end. A second Start
// does nothing.
func (s *Sampler) Start() {
	if s.ring != nil {
		return
	}
	r := rings.Get()
	if r == nil {
		r = &ring{
			wakeWorker:  make(chan struct{}, 1),
			wakePlanner: make(chan struct{}, 1),
			exited:      make(chan struct{}, 1),
		}
	}
	c := s.cache
	r.cls = classifier{space: c.space, measureVals: c.measureVals, lines: r.cls.lines[:0]}
	r.grand = c.grand
	s.ring = r
	go r.run(s.scanner)
}

// Stop stops the row worker and waits for it to return, so the stream is
// the caller's again; the rows it read ahead are dropped. A worker inside
// the scanner returns when the scanner does: a scan that hangs holds Stop.
// Stop on a sampler that was not started does nothing.
func (s *Sampler) Stop() {
	r := s.ring
	if r == nil {
		return
	}
	r.stop.Store(true)
	wake(&r.workerParked, r.wakeWorker)
	<-r.exited
	s.ring = nil
	*r = ring{
		cls:         classifier{lines: r.cls.lines},
		wakeWorker:  r.wakeWorker,
		wakePlanner: r.wakePlanner,
		exited:      r.exited,
	}
	rings.Put(r)
}

// wake clears a waiter's parked flag and hands it a wake-up, if it was
// parked.
func wake(parked *atomic.Bool, ch chan struct{}) {
	if parked.Load() && parked.CompareAndSwap(true, false) {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// run is the worker: classify chunk after chunk until the stream ends or
// Stop.
func (r *ring) run(scanner table.Scanner) {
	defer func() {
		r.panicked = recover()
		r.done.Store(true)
		wake(&r.plannerParked, r.wakePlanner)
		r.exited <- struct{}{}
	}()
	for h := int64(0); !r.stop.Load(); h++ {
		if h-r.tail.Load() == ringChunks && !r.waitFree(h) {
			return
		}
		n := scanner.NextBatch(r.rows[:])
		if n == 0 {
			return
		}
		ch := &r.chunks[h%ringChunks]
		ch.n = n
		r.cls.classify(r.rows[:n], ch.idx[:n], ch.vals[:n], &r.grand)
		ch.grand = r.grand
		r.head.Store(h + 1)
		wake(&r.plannerParked, r.wakePlanner)
	}
}

// waitFree parks the worker, whose next chunk is h, on a full ring until
// half of it is free. It returns false on Stop.
func (r *ring) waitFree(h int64) bool {
	for {
		r.workerParked.Store(true)
		if r.stop.Load() {
			return false
		}
		if h-r.tail.Load() <= ringChunks/2 {
			r.workerParked.Store(false)
			return true
		}
		<-r.wakeWorker
	}
}

// next returns the chunk at tail once the worker published it, or nil if
// the stream ended first or ctx is done while the planner waits.
func (r *ring) next(ctx context.Context) *chunk {
	t := r.tail.Load()
	for {
		done := r.done.Load()
		if r.head.Load() > t {
			return &r.chunks[t%ringChunks]
		}
		if done {
			if r.panicked != nil {
				panic(r.panicked)
			}
			return nil
		}
		r.plannerParked.Store(true)
		if r.head.Load() > t || r.done.Load() {
			r.plannerParked.Store(false)
			continue
		}
		select {
		case <-r.wakePlanner:
		case <-ctx.Done():
			r.plannerParked.Store(false)
			return nil
		}
	}
}

// pop frees the chunk at tail, waking the worker once half the ring is free.
func (r *ring) pop() {
	t := r.tail.Load() + 1
	r.tail.Store(t)
	if r.head.Load()-t <= ringChunks/2 {
		wake(&r.workerParked, r.wakeWorker)
	}
}

// read folds up to n rows of the worker's chunks into c and returns how
// many it folded, checking ctx before each chunk as ReadRowsContext does
// without a worker. A chunk folded to its end brings the worker's grand
// moments through its last row; a read that ends inside a chunk adds its
// rows' grand updates itself, the same updates in the same order.
func (r *ring) read(ctx context.Context, c *Cache, n int) int {
	read := 0
	for read < n && ctx.Err() == nil {
		ch := r.next(ctx)
		if ch == nil {
			break
		}
		lo := r.off
		hi := min(ch.n, lo+n-read)
		c.fold(ch.idx[lo:hi], ch.vals[lo:hi])
		if hi == ch.n {
			c.grand = ch.grand
			r.off = 0
			r.pop()
		} else {
			for i := lo; i < hi; i++ {
				if ch.idx[i] >= 0 {
					c.grand.Add(ch.vals[i])
				}
			}
			r.off = hi
		}
		read += hi - lo
	}
	return read
}
