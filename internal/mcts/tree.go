// Package mcts implements the UCT search tree over speech candidates
// (Algorithm 2 of the paper). Nodes represent partial speeches; sampling
// descends from the root via the UCT formula, evaluates the reached leaf
// speech against a database sample, and backs the reward up the path. In
// line with the paper's unusual design choice, the tree is generated in a
// pre-processing step (the fragment limit bounds its height), with a node
// cap as a safety valve that switches to lazy expansion on first visit.
//
// A child costs four bytes until it is visited. Expanding a node enumerates
// its valid one-fragment extensions into a table of slots, each holding the
// ordinal of its fragment in the generator's shared menu; a Node is
// materialised only when a sample first descends into the slot, when the
// eager pre-build recurses into it, or when BestChild must return it. A
// fine-grained query enumerates some 520 children per expansion and over
// half a million per answer, of which the answer's samples can reach a few
// tens of thousands; the rest never become nodes. An empty slot counts as
// an unvisited child in every decision, so the search is step for step the
// one a fully materialised tree would run, and NodeCount keeps counting
// enumerated children. Materialised nodes come from fixed-size blocks owned
// by the tree and are published by a compare-and-swap on their slot; one
// tree-level lock serialises enumeration (about a thousand expansions
// against tens of thousands of samples per answer). An earlier layout padded every node to three cache
// lines against false sharing between parallel workers; measured at two
// cores the padding slowed the parallel sampler, and it is gone.
//
// Nodes store only the fragment they add — a baseline or one refinement —
// and materialize their full speech on demand by walking to the root.
// Cloning speeches per node would dominate tree-construction cost.
package mcts

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/speech"
)

// EvalFunc scores a complete candidate speech against one database sample
// (SpeechDBeval). ok is false when no sample-based evaluation is possible
// yet (e.g. no aggregate has cached rows); such rounds update nothing.
type EvalFunc func(s *speech.Speech) (reward float64, ok bool)

// Node is a materialised search tree node adding one fragment to its
// parent's speech.
type Node struct {
	// Visits counts tree samples traversing this node.
	Visits int64
	// Reward accumulates sampled rewards over those visits.
	Reward float64
	// Parent is nil for the root.
	Parent *Node
	// slots is the child table: the valid one-fragment extensions, in menu
	// order. It is written once, before expanded flips.
	slots []slot
	// baseline is set on first-level nodes.
	baseline *speech.Baseline
	// ref is set on refinement nodes.
	ref *speech.Refinement
	// depth counts refinements on the path (0 for root and baselines).
	depth int32
	// mainLen is the running MainText length for O(1) validity checks.
	mainLen int32
	// expanded flips to true only after slots is fully built, so a
	// lock-free load that observes true also observes the table
	// (release/acquire via the atomic).
	expanded atomic.Bool
	// speechMemo memoizes the materialized speech once requested; atomic
	// so parallel workers can share it. A lost race rebuilds an identical
	// speech — benign.
	speechMemo atomic.Pointer[speech.Speech]
}

// slot is one enumerated child. A non-negative value is the ordinal of the
// child's fragment (in the tree's baseline ladder below the root, in the
// refinement menu elsewhere) and means no sample has descended into it yet;
// a negative value v means the child is the tree's node number ^v. The
// transition happens once, by compare-and-swap.
type slot struct{ v atomic.Int32 }

// Nodes are handed out from blocks of blockSize, so materialising one is a
// bump of a counter and their addresses never move.
const (
	blockShift = 8
	blockSize  = 1 << blockShift
)

type block [blockSize]Node

// directory is one snapshot of a tree's node blocks. A scan that cannot
// race with materialisation (the sequential sampler's) loads it once.
type directory []*block

// at returns the node with the given number.
func (d directory) at(id int32) *Node { return &d[id>>blockShift][id&(blockSize-1)] }

// IsLeaf reports whether the node has no children. Before expansion a node
// is treated as a leaf only if it is terminal (no valid extensions).
func (n *Node) IsLeaf() bool { return len(n.slots) == 0 }

// MeanReward returns the node's average sampled reward (0 when unvisited).
func (n *Node) MeanReward() float64 {
	if n.Visits == 0 {
		return 0
	}
	return n.Reward / float64(n.Visits)
}

// Refinement returns the refinement fragment this node adds (nil for the
// root and baseline nodes).
func (n *Node) Refinement() *speech.Refinement { return n.ref }

// Tree is the speech search tree with its generator and evaluator.
type Tree struct {
	root     *Node
	preamble *speech.Preamble
	gen      *speech.Generator
	eval     EvalFunc
	rng      *rand.Rand
	// MaxNodes caps eager pre-expansion; deeper nodes expand lazily on
	// first visit.
	MaxNodes int
	// UniformPolicy replaces the UCT child selection with uniform random
	// picks. It exists for the ablation benchmarks quantifying what the
	// exploration/exploitation balance buys.
	UniformPolicy bool
	// SeededEval, when set, is used by SampleParallelBatch instead of the
	// sequential evaluator: each worker passes its own RNG, so evaluation
	// needs no shared mutable state. When nil, parallel workers serialize
	// calls to the sequential evaluator behind evalMu.
	SeededEval SeededEvalFunc
	// SeededEvalFactory, when set, takes precedence over SeededEval in
	// SampleParallelBatch: each worker calls it once at batch start and
	// evaluates through its private instance for the whole batch. It lets
	// evaluators keep per-worker mutable scratch (e.g. a belief reward
	// kernel with hoisted constants) without any cross-worker sharing.
	SeededEvalFactory func() SeededEvalFunc

	// menu and baselines are what slot ordinals index: the generator's
	// shared refinement menu and the baseline ladder around the scale estimate.
	menu      []*speech.Refinement
	baselines []*speech.Baseline

	// mu is the tree's one expansion lock: it serialises enumerating a
	// node's children, and adding a block of nodes.
	mu sync.Mutex
	// blocks is the directory of node blocks. Growth stores a longer copy,
	// so a reader that found a node number in a slot always finds its
	// block in the directory it loads afterwards.
	blocks atomic.Pointer[directory]
	// made is the number of nodes handed out.
	made atomic.Int32
	// ordScratch collects the ordinals of one expansion (guarded by mu).
	ordScratch []int32
	// nodeCount counts enumerated children plus the root.
	nodeCount atomic.Int64

	// pathScratch is the pooled descent path of the sequential Sample.
	pathScratch []*Node
	evalMu      sync.Mutex
}

// DefaultMaxNodes bounds eager tree construction. The paper's queries stay
// far below it; the cap protects against pathological member counts.
const DefaultMaxNodes = 200000

// NewTree builds the search tree for the generator's query. scale is the
// value scale that seeds baseline candidates (an early grand estimate, or
// the exact grand value for the optimal baseline). The tree is expanded
// eagerly up to DefaultMaxNodes; use NewTreeWithCap to bound it tighter.
func NewTree(gen *speech.Generator, scale float64, eval EvalFunc, rng *rand.Rand) (*Tree, error) {
	return NewTreeWithCap(gen, scale, eval, rng, DefaultMaxNodes)
}

// NewTreeWithCap is NewTree with an explicit eager-expansion node cap
// (maxNodes <= 0 selects DefaultMaxNodes). Nodes beyond the cap expand
// lazily when sampling first reaches them.
func NewTreeWithCap(gen *speech.Generator, scale float64, eval EvalFunc, rng *rand.Rand, maxNodes int) (*Tree, error) {
	if gen == nil || eval == nil || rng == nil {
		return nil, errors.New("mcts: generator, evaluator and rng are required")
	}
	if maxNodes <= 0 {
		maxNodes = DefaultMaxNodes
	}
	t := &Tree{
		preamble:  gen.NewPreamble(),
		gen:       gen,
		eval:      eval,
		rng:       rng,
		MaxNodes:  maxNodes,
		menu:      gen.Refinements(nil),
		baselines: gen.BaselineCandidates(speech.SpeechScale(scale)),
	}
	t.blocks.Store(new(directory))
	t.root, _ = t.newNode()
	t.nodeCount.Store(1)
	// Prewarm the per-fragment text memos now: candidate fragments are
	// shared across the whole tree, and lazy expansion during a parallel
	// batch must never be the first caller of an unsynchronized memoization.
	for _, r := range t.menu {
		r.Text()
	}
	for _, b := range t.baselines {
		b.Text()
	}
	t.preamble.Text()
	t.prebuild(t.root)
	return t, nil
}

// Root returns the current root node.
func (t *Tree) Root() *Node { return t.root }

// NodeCount returns the number of enumerated nodes: the root plus every
// child an expansion has listed, materialised or not.
func (t *Tree) NodeCount() int { return int(t.nodeCount.Load()) }

// NumChildren returns the number of children expansion enumerated below n
// (zero for a leaf and for a node no sample has reached yet).
func (t *Tree) NumChildren(n *Node) int { return len(n.slots) }

// Child returns the i-th child of n in enumeration order, or nil while no
// sample has descended into it: such a child has zero visits and reward.
func (t *Tree) Child(n *Node, i int) *Node {
	if v := n.slots[i].v.Load(); v < 0 {
		return t.node(^v)
	}
	return nil
}

// node returns the materialised node with the given number.
func (t *Tree) node(id int32) *Node { return t.blocks.Load().at(id) }

// newNode hands out the next node and its number. The number is a bump of
// an atomic cursor; mu is taken only to add a block to the directory.
func (t *Tree) newNode() (*Node, int32) {
	id := t.made.Add(1) - 1
	if hi := int(id >> blockShift); hi >= len(*t.blocks.Load()) {
		t.mu.Lock()
		for hi >= len(*t.blocks.Load()) {
			dir := *t.blocks.Load()
			grown := append(dir[:len(dir):len(dir)], new(block))
			t.blocks.Store(&grown)
		}
		t.mu.Unlock()
	}
	return t.node(id), id
}

// child returns the i-th child of n, materialising it on first use. Rival
// workers each fill a node of their own and one compare-and-swap on the
// slot decides; the loser's node is never referenced.
func (t *Tree) child(n *Node, i int) *Node {
	s := &n.slots[i]
	v := s.v.Load()
	if v < 0 {
		return t.node(^v)
	}
	c, id := t.newNode()
	c.Parent = n
	if n.Parent == nil {
		c.baseline = t.baselines[v]
		c.mainLen = int32(len(c.baseline.Text()))
	} else {
		c.ref = t.menu[v]
		c.depth = n.depth + 1
		c.mainLen = n.mainLen + 1 + int32(len(c.ref.Text()))
	}
	if !s.v.CompareAndSwap(v, ^id) {
		return t.node(^s.v.Load())
	}
	return c
}

// Speech materializes the speech represented by node n (which must belong
// to this tree): the preamble, the path's baseline, and its refinements in
// order. The result is memoized on the node.
func (t *Tree) Speech(n *Node) *speech.Speech {
	if sp := n.speechMemo.Load(); sp != nil {
		return sp
	}
	sp := &speech.Speech{Preamble: t.preamble}
	if n.depth > 0 {
		sp.Refinements = make([]*speech.Refinement, n.depth)
	}
	for cur := n; cur != nil; cur = cur.Parent {
		if cur.ref != nil {
			sp.Refinements[cur.depth-1] = cur.ref
		}
		if cur.baseline != nil {
			sp.Baseline = cur.baseline
		}
	}
	n.speechMemo.Store(sp)
	return sp
}

// conflictsOnPath reports whether r can no longer extend n's speech: an
// ancestor refinement has the same scope or, under the generator's
// disjoint-scopes rule, an overlapping one.
func (t *Tree) conflictsOnPath(n *Node, r *speech.Refinement) bool {
	for cur := n; cur != nil; cur = cur.Parent {
		if cur.ref != nil && t.gen.Conflicts(cur.ref, r) {
			return true
		}
	}
	return false
}

// expand enumerates the children of n (ST.EXPAND) as slots. Validity
// (character and fragment limits, duplicate scopes) is checked with O(k)
// incremental state against the shared menu, without copying the menu or
// materializing candidate speeches.
//
// Expansion is safe under concurrent sampling: the tree's expansion lock
// serializes rival builders (double-checked against the expanded flag),
// the table becomes visible before the flag flips, and nodes past the flag
// are never rebuilt.
func (t *Tree) expand(n *Node) {
	if n.expanded.Load() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n.expanded.Load() {
		return
	}
	prefs := t.gen.Prefs
	maxChars := prefs.MaxCharsEffective()
	ords := t.ordScratch[:0]
	if n.Parent == nil {
		for i, b := range t.baselines {
			if maxChars > 0 && len(b.Text()) > maxChars {
				continue
			}
			ords = append(ords, int32(i))
		}
	} else if prefs.MaxFragments <= 0 || int(n.depth) < prefs.MaxFragments {
		for i, r := range t.menu {
			if maxChars > 0 && int(n.mainLen)+1+len(r.Text()) > maxChars {
				continue
			}
			if t.conflictsOnPath(n, r) {
				continue
			}
			ords = append(ords, int32(i))
		}
	}
	t.ordScratch = ords
	if len(ords) > 0 {
		n.slots = make([]slot, len(ords))
		for i, o := range ords {
			n.slots[i].v.Store(o)
		}
		t.nodeCount.Add(int64(len(ords)))
	}
	n.expanded.Store(true)
}

// prebuild expands n and its descendants depth-first while the node budget
// lasts; past the budget, descendants expand lazily. Children at the
// fragment limit cannot have children of their own and stay slots.
func (t *Tree) prebuild(n *Node) {
	t.expand(n)
	if mf := t.gen.Prefs.MaxFragments; n.Parent != nil && mf > 0 && int(n.depth)+1 >= mf {
		return
	}
	for i := 0; i < len(n.slots) && t.nodeCount.Load() < int64(t.MaxNodes); i++ {
		t.prebuild(t.child(n, i))
	}
}

// maxUCTChild returns the child to descend into (ST.MAXUCTCHILD):
// unvisited children first (random pick), otherwise the maximizer of the
// UCT upper confidence bound.
func (t *Tree) maxUCTChild(n *Node) *Node {
	if t.UniformPolicy {
		return t.child(n, t.rng.Intn(len(n.slots)))
	}
	// One scan counts the unvisited children (an empty slot is one) and, in
	// case there are none, already ranks the visited ones by UCT bound. The
	// unvisited pick is re-scanned by ordinal rather than collected into a
	// slice: one Intn draw either way (the RNG stream is pinned by golden
	// tests), zero allocations per level.
	nodes := *t.blocks.Load()
	logN := math.Log(float64(n.Visits))
	unvisited := 0
	var best *Node
	bestScore := math.Inf(-1)
	for i := range n.slots {
		v := n.slots[i].v.Load()
		if v >= 0 {
			unvisited++
			continue
		}
		c := nodes.at(^v)
		if c.Visits == 0 {
			unvisited++
			continue
		}
		score := c.Reward/float64(c.Visits) + math.Sqrt(2*logN/float64(c.Visits))
		if score > bestScore {
			bestScore = score
			best = c
		}
	}
	if unvisited == 0 {
		return best
	}
	k := t.rng.Intn(unvisited)
	for i := range n.slots {
		if v := n.slots[i].v.Load(); v >= 0 || nodes.at(^v).Visits == 0 {
			if k == 0 {
				return t.child(n, i)
			}
			k--
		}
	}
	panic("mcts: unvisited child vanished during a sequential scan")
}

// Sample performs one MCTS round (Algorithm 2's SAMPLE): descend from the
// current root to a leaf via UCT, evaluate the leaf's complete speech
// against a database sample, and update statistics along the path. It
// returns false when the evaluator could not produce a reward (nothing is
// updated then).
func (t *Tree) Sample() bool {
	n := t.root
	// The descent path is pooled across rounds: its length is bounded by
	// the fragment limit, and one slice per round was the planner loop's
	// dominant allocation.
	path := append(t.pathScratch[:0], n)
	for {
		if !n.expanded.Load() {
			t.expand(n)
		}
		if n.IsLeaf() {
			break
		}
		n = t.maxUCTChild(n)
		path = append(path, n)
	}
	t.pathScratch = path
	r, ok := t.eval(t.Speech(n))
	if !ok {
		return false
	}
	for _, p := range path {
		p.Visits++
		p.Reward += r
	}
	return true
}

// SampleBatch performs up to n sampling rounds, checking ctx between
// rounds so a planner under a deadline stops mid-batch instead of
// finishing it. It returns the number of rounds that produced a reward and
// ctx.Err() when cancellation cut the batch short (nil otherwise).
func (t *Tree) SampleBatch(ctx context.Context, n int) (int, error) {
	done := 0
	for i := 0; i < n; i++ {
		select {
		case <-ctx.Done():
			return done, ctx.Err()
		default:
		}
		if t.Sample() {
			done++
		}
	}
	return done, nil
}

// BestChild returns the child of the current root with the highest mean
// reward (Algorithm 1's exploitation-only selection for committing to the
// next sentence), or nil when the root is a leaf. Unvisited children rank
// below any visited child; among equally unvisited children the first is
// returned.
func (t *Tree) BestChild() *Node {
	if t.root.IsLeaf() {
		return nil
	}
	var best *Node
	var bestScore float64
	for i := range t.root.slots {
		if c := t.Child(t.root, i); c != nil && c.Visits > 0 {
			if score := c.MeanReward(); best == nil || score > bestScore {
				best = c
				bestScore = score
			}
		}
	}
	if best == nil {
		return t.child(t.root, 0)
	}
	return best
}

// Advance makes child the new root, retaining its subtree statistics so
// planning never restarts from scratch (the paper's root-reuse).
// It panics if child is not a child of the current root.
func (t *Tree) Advance(child *Node) {
	if child.Parent != t.root {
		panic("mcts: Advance target is not a child of the root")
	}
	t.root = child
}

// Depth returns the height of the tree below the current root (leaf speech
// length in fragments relative to the root). An empty slot is a child of
// unknown height and counts as one level.
func (t *Tree) Depth() int {
	var walk func(n *Node) int
	walk = func(n *Node) int {
		max := 0
		for i := range n.slots {
			d := 1
			if c := t.Child(n, i); c != nil {
				d += walk(c)
			}
			if d > max {
				max = d
			}
		}
		return max
	}
	return walk(t.root)
}
