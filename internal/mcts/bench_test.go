package mcts

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/speech"
)

// seededExactEval wraps the deterministic exact-quality evaluator in the
// parallel-safe seeded signature; Model.Quality only reads immutable state
// after generator prewarm, so workers share it without locks.
func (e *env) seededExactEval() SeededEvalFunc {
	return func(s *speech.Speech, _ *rand.Rand) (float64, bool) {
		return e.model.Quality(s, e.result), true
	}
}

// BenchmarkSampleSequential is the single-thread UCT baseline.
func BenchmarkSampleSequential(b *testing.B) {
	e := newEnv(b)
	tree, err := NewTree(e.gen, e.result.GrandValue(), e.exactEval(), rand.New(rand.NewSource(7)))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := tree.SampleBatch(context.Background(), b.N); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSampleSequentialFine is the same round over the widest menu a
// query gets (city by month, 480 refinements below every node, the daemon's
// 100 000-node eager cap). BenchmarkSampleSequential's tree has 24-wide
// levels and never showed what an expansion and a descent level cost when
// both grow with the menu.
func BenchmarkSampleSequentialFine(b *testing.B) {
	tree, err := NewTreeWithCap(fineGen(b), 0.02, hashEval(0, new(float64)), rand.New(rand.NewSource(7)), 100000)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := tree.SampleBatch(context.Background(), b.N); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSampleParallelBatch runs the virtual-loss parallel sampler with
// as many workers as the -cpu value grants; ns/op falling with -cpu is the
// scaling evidence, ns/op rising is a contention regression.
func BenchmarkSampleParallelBatch(b *testing.B) {
	e := newEnv(b)
	tree, err := NewTree(e.gen, e.result.GrandValue(), e.exactEval(), rand.New(rand.NewSource(7)))
	if err != nil {
		b.Fatal(err)
	}
	tree.SeededEval = e.seededExactEval()
	workers := runtime.GOMAXPROCS(0)
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := tree.SampleParallelBatch(context.Background(), b.N, workers); err != nil {
		b.Fatal(err)
	}
}
