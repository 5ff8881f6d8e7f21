package mcts

import (
	"context"
	"math/rand"
	"testing"
	"time"
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

// An answer of the daemon is three planning windows of 2 000 rounds of four
// samples, with a commit to the best child between them.
const (
	answerWindows    = 3
	samplesPerWindow = 8000
)

// BenchmarkSampleBatch is the planning of one fine answer in the shape the
// daemon runs it: the widest menu a query gets (city by month, 480
// refinements below every node), the daemon's 100 000-node eager cap, and
// answerWindows windows through SampleBatch with BestChild and Advance
// between them, so each level saturates as far as an answer's samples take it
// and no further. One op is one answer, tree build excluded and the release
// of its tree included: the tree is built on the arena the previous op's
// released, so B/op is what a recycled fine answer's planning allocates.
//
// Beside the time of the real loop it reports where a sample's time goes, from
// a second tree on the same seed sampled through phaseClock.sample: ns per
// sample spent expanding, descending, evaluating (the scratch speech and the
// stand-in evaluator, not a belief reward) and backing up, and per sample the
// children on saturated levels and the UCT bounds computed to rank them.
func BenchmarkSampleBatch(b *testing.B) {
	gen := fineGen(b)
	newTree := func() *Tree {
		tree, err := NewTreeWithCap(gen, 0.02, hashEval(0, continuous, new(float64)), rand.New(rand.NewSource(7)), 100000)
		if err != nil {
			b.Fatal(err)
		}
		return tree
	}
	var ph phaseClock
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tree, timed := newTree(), newTree()
		b.StartTimer()
		for w := 0; w < answerWindows; w++ {
			if w > 0 {
				tree.Advance(tree.BestChild())
			}
			if _, err := tree.SampleBatch(context.Background(), samplesPerWindow); err != nil {
				b.Fatal(err)
			}
		}
		nodes, reward := tree.NodeCount(), tree.Root().Reward
		tree.Release()
		b.StopTimer()
		for w := 0; w < answerWindows; w++ {
			if w > 0 {
				timed.Advance(timed.BestChild())
			}
			for s := 0; s < samplesPerWindow; s++ {
				ph.sample(timed)
			}
		}
		if nodes != timed.NodeCount() || reward != timed.Root().Reward {
			b.Fatalf("phaseClock.sample no longer follows Tree.Sample: %d nodes and reward %v against %d and %v",
				timed.NodeCount(), timed.Root().Reward, nodes, reward)
		}
		timed.Release()
	}
	samples := float64(b.N * answerWindows * samplesPerWindow)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/samples, "ns/sample")
	b.ReportMetric(float64(ph.expand.Nanoseconds())/samples, "expand-ns/sample")
	b.ReportMetric(float64(ph.descend.Nanoseconds())/samples, "descend-ns/sample")
	b.ReportMetric(float64(ph.evaluate.Nanoseconds())/samples, "evaluate-ns/sample")
	b.ReportMetric(float64(ph.backUp.Nanoseconds())/samples, "backup-ns/sample")
	b.ReportMetric(float64(ph.children)/samples, "children/sample")
	b.ReportMetric(float64(ph.scored)/samples, "scored/sample")
}

// phaseClock adds up the time of Tree.Sample's phases over many samples.
type phaseClock struct {
	expand, descend, evaluate, backUp time.Duration
	// children counts the children ranked by UCT bound: the fan-out of every
	// level that had no unvisited child left.
	children int
	// scored counts the bounds computed to rank them, maxUCTChild's third
	// result: a head per run of equal visit count that might beat the best
	// so far, and the children after a head that might share its score.
	scored int
}

// sample is Tree.Sample and Tree.descend copied out with a clock read between
// the phases (four a sample, two more around an expansion), which the phases'
// times include.
func (ph *phaseClock) sample(t *Tree) {
	start := time.Now()
	var expand time.Duration
	path := t.pathScratch[:0]
	for id, n := t.root, t.node(t.root); ; {
		path = append(path, n)
		if n.fan == 0 {
			t0 := time.Now()
			t.expand(n)
			expand += time.Since(t0)
		}
		if n.fan < 0 {
			break
		}
		c, cn, scored := t.maxUCTChild(n, id)
		if cn.Visits > 0 { // an unvisited child would have been drawn first
			ph.children += len(t.fanout(n.fan).kids)
		}
		ph.scored += scored
		id, n = c, cn
	}
	t.pathScratch = path
	descended := time.Now()
	leaf := path[len(path)-1]
	for int(leaf.depth) > len(t.scratchRefs) {
		t.scratchRefs = append(t.scratchRefs, nil)
	}
	t.fill(&t.scratch, t.scratchRefs, leaf)
	r, ok := t.eval(&t.scratch)
	evaluated := time.Now()
	if ok {
		t.backUp(path, r)
	}
	ph.expand += expand
	ph.descend += descended.Sub(start) - expand
	ph.evaluate += evaluated.Sub(descended)
	ph.backUp += time.Since(evaluated)
}
