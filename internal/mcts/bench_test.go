package mcts

import (
	"context"
	"math/rand"
	"testing"
)

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
