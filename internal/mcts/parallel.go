package mcts

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/speech"
)

// SeededEvalFunc is the parallel-safe variant of EvalFunc: the sampler
// passes each worker's private RNG, so implementations draw randomness
// from the argument instead of shared state. Unlike EvalFunc's, the speech
// is the call's own and may be kept.
type SeededEvalFunc func(s *speech.Speech, rng *rand.Rand) (reward float64, ok bool)

// SampleParallelBatch performs up to rounds sampling rounds spread over
// the given number of worker goroutines, using virtual loss: each worker
// increments Visits along its descent path *before* evaluating, so
// concurrent descents see in-flight rounds as already-taken losses and
// spread across the tree instead of piling onto one leaf. Rounds whose
// evaluation produces no reward revert their visit increments, so after the
// batch the statistics are exactly those of the reward-producing rounds.
//
// Only evaluation runs in parallel: descent and back-up hold the tree's
// lock, and every round builds a speech of its own, because a seeded
// evaluator may memoize by speech (belief.RewardKernel does).
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
	var remaining, done atomic.Int64
	remaining.Store(int64(rounds))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			eval := t.SeededEval
			if t.SeededEvalFactory != nil {
				eval = t.SeededEvalFactory()
			}
			for remaining.Add(-1) >= 0 && ctx.Err() == nil {
				if t.sampleParallel(rng, eval) {
					done.Add(1)
				}
			}
		}(seeds[w])
	}
	wg.Wait()
	return int(done.Load()), ctx.Err()
}

// sampleParallel is one parallel MCTS round.
func (t *Tree) sampleParallel(rng *rand.Rand, eval SeededEvalFunc) bool {
	t.mu.Lock()
	path := t.descend(make([]*Node, 0, 8), rng)
	for _, p := range path {
		p.visit() // virtual loss
	}
	sp := t.Speech(path[len(path)-1])
	t.mu.Unlock()

	r, ok := t.evalParallel(eval, sp, rng)

	t.mu.Lock()
	defer t.mu.Unlock()
	for _, p := range path {
		if ok {
			p.Reward += r
		} else {
			// No reward: revert the virtual loss so the failed round leaves
			// no trace, matching the sequential sampler's "update nothing".
			p.unvisit()
		}
	}
	return ok
}

// unvisit takes back one visit of n, clearing its seen bit with the last.
func (n *Node) unvisit() {
	n.Visits--
	if n.Visits == 0 && n.Parent != nil {
		drop(n.Parent.fan.seen(), int(n.ord))
	}
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
