package mcts

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/speech"
)

// SeededEvalFunc is the parallel-safe variant of EvalFunc: the sampler
// passes each worker's private RNG, so implementations draw randomness
// from the argument instead of shared state.
type SeededEvalFunc func(s *speech.Speech, rng *rand.Rand) (reward float64, ok bool)

// roundChunk is the number of rounds a worker claims from the shared
// counter at a time. Per-round claims made the remaining-counter cache
// line the single hottest word in a batch (every worker XADDs it every
// round); chunked claims cut that traffic by the chunk factor while
// keeping the tail short enough that workers finish a batch together.
const roundChunk = 16

// rootDelta batches a worker's root statistics. Every descent passes
// through the root, so per-round atomic updates of root.Visits/Reward
// made its cache line a global contention point — unlike deeper nodes,
// whose traffic spreads across the tree. Root visits are only read as the
// logN numerator for its children's UCT scores, which tolerates
// chunk-bounded staleness; deltas flush at every chunk boundary and at
// worker exit, so batch-final statistics are exact.
type rootDelta struct {
	visits int64
	reward float64
}

// SampleParallelBatch performs up to rounds sampling rounds spread over
// the given number of worker goroutines, using virtual loss: each worker
// increments Visits along its descent path *before* evaluating, so
// concurrent descents see in-flight rounds as already-taken losses and
// spread across the tree instead of piling onto one leaf. Rewards are
// backed up atomically; rounds whose evaluation produces no reward revert
// their visit increments, so after the batch the statistics are exactly
// those of the reward-producing rounds.
//
// workers <= 1 delegates to the sequential SampleBatch before consuming
// any RNG state, so a single-worker batch is byte-identical to the
// sequential planner. Worker RNGs are split deterministically from the
// tree's RNG: a fixed seed gives a reproducible set of worker streams
// (though the interleaving of rounds remains scheduling-dependent).
//
// It returns the number of reward-producing rounds and ctx.Err() when
// cancellation cut the batch short.
func (t *Tree) SampleParallelBatch(ctx context.Context, rounds, workers int) (int, error) {
	if workers <= 1 || rounds <= 1 {
		return t.SampleBatch(ctx, rounds)
	}
	if workers > rounds {
		workers = rounds
	}
	seeds := make([]int64, workers)
	for i := range seeds {
		seeds[i] = t.rng.Int63()
	}
	var remaining atomic.Int64
	remaining.Store(int64(rounds))
	// Per-worker done counts land in a results slot after wg.Wait()'s
	// happens-before edge — no shared counter on the round hot path.
	done := make([]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64, out *int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			eval := t.SeededEval
			if t.SeededEvalFactory != nil {
				eval = t.SeededEvalFactory()
			}
			var path []*Node
			var root rootDelta
			defer t.flushRoot(&root)
			var ok bool
			for {
				take := claimRounds(&remaining)
				if take == 0 {
					return
				}
				for i := 0; i < take; i++ {
					select {
					case <-ctx.Done():
						return
					default:
					}
					path, ok = t.sampleParallel(rng, eval, path, &root)
					if ok {
						*out++
					}
				}
				t.flushRoot(&root)
			}
		}(seeds[w], &done[w])
	}
	wg.Wait()
	var total int64
	for _, d := range done {
		total += d
	}
	return int(total), ctx.Err()
}

// claimRounds takes up to roundChunk rounds from the shared counter,
// returning 0 once the batch is exhausted. Overdrafts from racing workers
// push the counter negative; the partial-tail math hands out exactly the
// requested total across all claims.
func claimRounds(remaining *atomic.Int64) int {
	r := remaining.Add(-roundChunk)
	if r <= -roundChunk {
		return 0
	}
	if r < 0 {
		return roundChunk + int(r)
	}
	return roundChunk
}

// flushRoot publishes a worker's batched root statistics.
func (t *Tree) flushRoot(d *rootDelta) {
	if d.visits != 0 {
		atomic.AddInt64(&t.root.Visits, d.visits)
		d.visits = 0
	}
	if d.reward != 0 {
		atomicAddFloat64(&t.root.Reward, d.reward)
		d.reward = 0
	}
}

// sampleParallel is one parallel MCTS round. path is the worker's pooled
// descent scratch (returned for reuse; nil allocates); root batches the
// worker's root-statistics updates.
func (t *Tree) sampleParallel(rng *rand.Rand, eval SeededEvalFunc, path []*Node, root *rootDelta) ([]*Node, bool) {
	n := t.root
	path = append(path[:0], n)
	// The root's virtual loss stays worker-local (root.visits): the root is
	// on every path, so a shared increment here would serialize all workers
	// on one cache line, and the root's own visit count steers nothing —
	// descent *from* the root only reads it as its children's logN.
	for {
		if !n.expanded.Load() {
			t.expand(n)
		}
		if n.IsLeaf() {
			break
		}
		var rootExtra int64
		if n == t.root {
			rootExtra = root.visits
		}
		n = t.maxUCTChildAtomic(n, rng, rootExtra)
		atomic.AddInt64(&n.Visits, 1) // virtual loss
		path = append(path, n)
	}
	r, ok := t.evalParallel(eval, t.Speech(n), rng)
	if !ok {
		// No reward: revert the virtual losses so failed rounds leave no
		// trace, matching the sequential sampler's "update nothing". The
		// root contributed no shared increment, so path[0] is skipped.
		for _, p := range path[1:] {
			atomic.AddInt64(&p.Visits, -1)
		}
		return path, false
	}
	root.visits++
	root.reward += r
	for _, p := range path[1:] {
		atomicAddFloat64(&p.Reward, r)
	}
	return path, true
}

// evalParallel scores a leaf speech from a worker: the worker's seeded
// evaluator when available, else the sequential evaluator behind a mutex.
func (t *Tree) evalParallel(eval SeededEvalFunc, sp *speech.Speech, rng *rand.Rand) (float64, bool) {
	if eval != nil {
		return eval(sp, rng)
	}
	t.evalMu.Lock()
	defer t.evalMu.Unlock()
	return t.eval(sp)
}

// maxUCTChildAtomic is maxUCTChild with atomic statistics reads and no
// per-call allocation: unvisited children (empty slots included) are picked
// uniformly by reservoir sampling; a child whose visits drop to zero
// mid-scan (a concurrent failed round reverting its virtual loss) is taken
// immediately, the moral equivalent of its +Inf UCT score. rootExtra adds
// the calling worker's unflushed root-visit delta when n is the root, and
// the total is clamped to >= 1 so a stale shared count never feeds a
// non-positive value to the logarithm.
func (t *Tree) maxUCTChildAtomic(n *Node, rng *rand.Rand, rootExtra int64) *Node {
	if t.UniformPolicy {
		return t.child(n, rng.Intn(len(n.slots)))
	}
	pick, unvisited := -1, 0
	for i := range n.slots {
		if c := t.Child(n, i); c == nil || atomic.LoadInt64(&c.Visits) == 0 {
			unvisited++
			if rng.Intn(unvisited) == 0 {
				pick = i
			}
		}
	}
	if pick >= 0 {
		return t.child(n, pick)
	}
	visits := atomic.LoadInt64(&n.Visits) + rootExtra
	if visits < 1 {
		visits = 1
	}
	logN := math.Log(float64(visits))
	var best *Node
	bestScore := math.Inf(-1)
	for i := range n.slots {
		// Slots never empty again, and the first scan found none empty.
		c := t.Child(n, i)
		v := atomic.LoadInt64(&c.Visits)
		if v == 0 {
			return c
		}
		score := atomicLoadFloat64(&c.Reward)/float64(v) + math.Sqrt(2*logN/float64(v))
		if score > bestScore {
			bestScore = score
			best = c
		}
	}
	return best
}

// atomicAddFloat64 accumulates delta into *addr with a CAS loop; Go's
// sync/atomic has no float64 add, and rewards back up from every worker.
func atomicAddFloat64(addr *float64, delta float64) {
	bits := (*uint64)(unsafe.Pointer(addr))
	for {
		old := atomic.LoadUint64(bits)
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if atomic.CompareAndSwapUint64(bits, old, next) {
			return
		}
	}
}

// atomicLoadFloat64 reads *addr atomically.
func atomicLoadFloat64(addr *float64) float64 {
	return math.Float64frombits(atomic.LoadUint64((*uint64)(unsafe.Pointer(addr))))
}
