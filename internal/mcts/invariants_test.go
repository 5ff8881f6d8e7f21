package mcts

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/speech"
)

// visitedChildren returns the children of n that a sample has descended
// into, in enumeration order. The rest are bits: children with zero visits
// and zero reward that were never made into nodes.
func visitedChildren(t *Tree, n *Node) []*Node {
	var out []*Node
	t.Kids(n, func(c *Node) { out = append(out, c) })
	return out
}

// idOf returns n's number: the root the tree was built with is node 1, and
// any other node is listed among its parent's children.
func idOf(t *Tree, n *Node) int32 {
	if n.parent == 0 {
		return 1
	}
	return t.kid(t.node(n.parent).fan, int(n.ord))
}

// childAt returns the i-th enumerated child of n, making it a node.
func childAt(t *Tree, n *Node, i int) *Node {
	_, c := t.child(n, idOf(t, n), selectBit(t.valid(n.fan), i))
	return c
}

// runsOf returns the run table of n's fan-out, nil if it has none.
func runsOf(t *Tree, n *Node) *runs {
	if n.fan <= 0 || t.fanout(n.fan).runs == 0 {
		return nil
	}
	return t.runTable(t.fanout(n.fan).runs)
}

// checkRuns holds the run order of n's fan-out, if it has one, to what the
// UCT scan relies on: every child is in it once; the runs partition it, each
// of one visit count, the counts strictly ascending, each run by mean
// descending; and the only child that may sit elsewhere is the one the last
// descent took, one visit past the count it was filed under.
func checkRuns(t testing.TB, tree *Tree, n *Node) {
	t.Helper()
	r := runsOf(tree, n)
	if r == nil {
		return
	}
	fatalf := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%q: "+format, append([]any{tree.Speech(n).MainText()}, args...)...)
	}
	if len(r.order) != tree.NumChildren(n) {
		fatalf("the runs list %d children, the fan-out has %d", len(r.order), tree.NumChildren(n))
	}
	listed := make([]uint64, len(tree.valid(n.fan)))
	for _, id := range r.order {
		c := tree.node(id)
		if tree.node(c.parent) != n || has(listed, int(c.ord)) {
			fatalf("the runs list node %d, which is another node's child or listed twice", id)
		}
		put(listed, int(c.ord))
	}
	if len(r.starts) == 0 || r.starts[0] != 0 {
		fatalf("run starts %v, want the first at 0", r.starts)
	}
	stale := tree.node(r.order[r.last])
	switch stale.Visits {
	case r.lastVisits:
		stale = nil
	case r.lastVisits + 1:
	default:
		fatalf("the child taken last had %d visits then and has %d", r.lastVisits, stale.Visits)
	}
	if got := r.starts[r.lastRun]; r.last < got || r.last >= r.end(int(r.lastRun)) {
		fatalf("the child taken last is at %d, outside its run %d", r.last, r.lastRun)
	}
	prevCount := int32(0)
	for i, s := range r.starts {
		if s >= r.end(i) {
			fatalf("run %d of %v is empty", i, r.starts)
		}
		// The stale child counts as what it was filed under and its mean, which
		// has moved, is not compared.
		count, mean := int32(0), math.Inf(1)
		for _, id := range r.order[s:r.end(i)] {
			c := tree.node(id)
			v := c.Visits
			if c == stale {
				v = r.lastVisits
			}
			switch {
			case count == 0 && v <= prevCount:
				fatalf("run %d has count %d after a run of %d", i, v, prevCount)
			case count != 0 && v != count:
				fatalf("run %d holds counts %d and %d", i, count, v)
			case c != stale && c.mean > mean:
				fatalf("run %d has mean %v after %v", i, c.mean, mean)
			}
			if count = v; c != stale {
				mean = c.mean
			}
		}
		prevCount = count
	}
}

// checkAccounting walks the tree after done reward-producing rounds: the
// root's visits equal done, every child's parent number leads back to the
// node it hangs under, a parent's visit count equals the sum of its
// children's visits (every sample path traverses from root to a leaf),
// accumulated rewards are consistent, and every saturated fan-out's runs are
// in order.
func checkAccounting(t *testing.T, tree *Tree, done int) {
	t.Helper()
	if got := tree.Root().Visits; int(got) != done {
		t.Errorf("root visits = %d, want done rounds %d", got, done)
	}
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.IsLeaf() {
			return
		}
		checkRuns(t, tree, n)
		var childVisits int64
		var childReward float64
		for _, c := range visitedChildren(tree, n) {
			if tree.node(c.parent) != n {
				t.Fatalf("a child of %q has parent number %d", tree.Speech(n).MainText(), c.parent)
			}
			childVisits += int64(c.Visits)
			childReward += c.Reward
		}
		if childVisits != int64(n.Visits) {
			t.Fatalf("node visits %d != sum of child visits %d", n.Visits, childVisits)
		}
		if diff := childReward - n.Reward; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("node reward %v != sum of child rewards %v", n.Reward, childReward)
		}
		for _, c := range visitedChildren(tree, n) {
			walk(c)
		}
	}
	walk(tree.Root())
}

// TestVisitAccountingInvariant: the accounting holds after any number of
// samples.
func TestVisitAccountingInvariant(t *testing.T) {
	e := newEnv(t)
	rng := rand.New(rand.NewSource(21))
	tree, err := NewTree(e.gen, e.result.GrandValue(), e.exactEval(), rng)
	if err != nil {
		t.Fatalf("NewTree: %v", err)
	}
	done := 0
	for i := 0; i < 500; i++ {
		if tree.Sample() {
			done++
		}
	}
	checkAccounting(t, tree, done)
}

// TestSampleBatchCancellation cancels from inside the 20th evaluation: the
// batch stops before the next round, reports the context's error, and
// leaves the accounting of the rounds it did finish intact.
func TestSampleBatchCancellation(t *testing.T) {
	e := newEnv(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	eval := func(s *speech.Speech) (float64, bool) {
		if calls++; calls == 20 {
			cancel()
		}
		return e.model.Quality(s, e.result), true
	}
	tree, err := NewTree(e.gen, e.result.GrandValue(), eval, rand.New(rand.NewSource(16)))
	if err != nil {
		t.Fatalf("NewTree: %v", err)
	}
	const rounds = 1 << 20 // would take far too long without cancellation
	done, err := tree.SampleBatch(ctx, rounds)
	if err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if done != 20 {
		t.Errorf("done = %d, want the 20 rounds evaluated before the cancel was seen", done)
	}
	checkAccounting(t, tree, done)
}

// TestSampleStopsAtMaxInt32 pins what the 32-bit visit count costs: a root
// one visit short of math.MaxInt32 books one more sample and refuses the
// next, as when no reward is available, and no count wraps.
func TestSampleStopsAtMaxInt32(t *testing.T) {
	e := newEnv(t)
	tree, err := NewTree(e.gen, e.result.GrandValue(), e.exactEval(), rand.New(rand.NewSource(24)))
	if err != nil {
		t.Fatalf("NewTree: %v", err)
	}
	if !tree.Sample() {
		t.Fatal("the first sample was refused")
	}
	// The one path lifted to math.MaxInt32-1 visits at its mean keeps every
	// parent's count the sum of its children's.
	const lift = math.MaxInt32 - 2
	for _, n := range tree.pathScratch {
		n.Visits += lift
		n.Reward += lift * n.mean
		n.mean = n.Reward / float64(n.Visits)
	}
	if !tree.Sample() {
		t.Fatal("the sample that takes the root to math.MaxInt32 visits was refused")
	}
	if tree.Sample() {
		t.Fatal("a sample past math.MaxInt32 visits was booked")
	}
	checkAccounting(t, tree, math.MaxInt32)
}

// TestRewardBoundsInvariant: with an evaluator bounded in [0,1], every
// mean reward stays in [0,1].
func TestRewardBoundsInvariant(t *testing.T) {
	e := newEnv(t)
	rng := rand.New(rand.NewSource(22))
	tree, err := NewTree(e.gen, e.result.GrandValue(), e.exactEval(), rng)
	if err != nil {
		t.Fatalf("NewTree: %v", err)
	}
	for i := 0; i < 300; i++ {
		tree.Sample()
	}
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Visits > 0 {
			m := n.MeanReward()
			if m < 0 || m > 1 {
				t.Fatalf("mean reward %v out of [0,1]", m)
			}
		}
		for _, c := range visitedChildren(tree, n) {
			walk(c)
		}
	}
	walk(tree.Root())
}

// TestTreeCountMatchesEnumeration: the eagerly expanded tree's node count
// equals 1 (root) + the number of valid speeches reachable by extension —
// cross-validated against a direct recursive enumeration using the same
// generator.
func TestTreeCountMatchesEnumeration(t *testing.T) {
	e := newEnv(t)
	rng := rand.New(rand.NewSource(23))
	tree, err := NewTree(e.gen, e.result.GrandValue(), e.exactEval(), rng)
	if err != nil {
		t.Fatalf("NewTree: %v", err)
	}
	// Direct enumeration: baselines then refinement chains, seeded with
	// the same rounded scale the tree uses.
	count := 1 // root
	scale := speech.SpeechScale(e.result.GrandValue())
	base := e.gen.BaselineCandidates(scale)
	count += len(base)
	// For each baseline, count valid refinement chains of length 1 and 2.
	for _, b := range base {
		baseLen := len(b.Text())
		first := e.gen.Refinements(nil)
		for _, r1 := range first {
			l1 := baseLen + 1 + len(r1.Text())
			if overLimit(e, l1) {
				continue
			}
			count++
			for _, r2 := range e.gen.Refinements(nil) {
				if r2.SameScope(r1) {
					continue
				}
				l2 := l1 + 1 + len(r2.Text())
				if overLimit(e, l2) {
					continue
				}
				count++
			}
		}
	}
	if tree.NodeCount() != count {
		t.Errorf("tree nodes = %d, enumeration = %d", tree.NodeCount(), count)
	}
}

// overLimit applies the character constraint the tree applies.
func overLimit(e *env, mainLen int) bool {
	max := e.gen.Prefs.MaxChars
	return max > 0 && mainLen > max
}
