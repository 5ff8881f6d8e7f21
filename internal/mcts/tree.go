// Package mcts implements the UCT search tree over speech candidates
// (Algorithm 2 of the paper). Nodes represent partial speeches; sampling
// descends from the root via the UCT formula, evaluates the reached leaf
// speech against a database sample, and backs the reward up the path. In
// line with the paper's unusual design choice, the tree is generated in a
// pre-processing step (the fragment limit bounds its height), with a node
// cap as a safety valve that switches to lazy expansion on first visit.
//
// A child is three bits until it is visited. Every node below the root
// chooses its children from one shared menu (the generator's refinement
// candidates; the baseline ladder below the root), so an expanded node keeps
// a fan-out of three bitsets over that menu's ordinals: valid (the fragment
// may follow this speech), seen (the child has a visit) and made (the child
// is a Node), plus the numbers of its made children in ordinal order. The
// valid set is the AND of one compatibility row per ancestor refinement,
// built once per tree, minus what overflows the character limit. A Node is
// materialised only when a sample first descends into a child, when the
// eager pre-build recurses into it, or when BestChild must return it. A
// fine-grained query offers 390 to 480 children per expansion and over half
// a million per answer, of which the answer's samples reach a few tens of
// thousands; the rest stay bits. A child that is not made counts as an
// unvisited child in every decision, so the search is step for step the one
// a fully materialised tree would run, and NodeCount keeps counting
// enumerated children.
//
// What that buys per level of a descent, with m the menu size: counting the
// unvisited children and selecting the k-th is O(m/64) words. Once every
// child has a visit the level is ranked by UCT bound, which the paper's
// Theorem A.3 counts as O(m); here it scores one child per distinct visit
// count. The exploration term sqrt(2 ln N / v) is one float for all children
// with v visits and adding it to a mean is monotone, so among them only the
// highest mean can hold the maximum: the fan-out keeps its children in runs
// of equal count, each run by mean descending, scores the head of each run
// and, where heads tie, walks the run's prefix of equal scores for the lowest
// ordinal. That is the child a scan of all m returns, to the bit, since every
// score is the same expression on the same operands. A level a few thousand
// samples old has around ten runs; only a level whose children all tie costs
// O(m) again. Keeping the runs costs one move per descent: the child the
// previous descent took has one visit more and goes to the next run.
//
// Nodes store only the ordinal of the fragment they add and come from
// fixed-size blocks owned by the tree. A leaf is never made into a speech:
// the sequential sampler evaluates it through one scratch speech it rewrites
// in place, and Speech builds a real one for the few nodes a caller asks
// about. Nothing here is safe for concurrent use.
package mcts

import (
	"cmp"
	"context"
	"errors"
	"math"
	"math/bits"
	"math/rand"
	"slices"

	"repro/internal/speech"
)

// EvalFunc scores a complete candidate speech against one database sample
// (SpeechDBeval). ok is false when no sample-based evaluation is possible
// yet (e.g. no aggregate has cached rows); such rounds update nothing. The
// speech is valid only during the call: the tree rewrites it for the next
// leaf, so an evaluator must not keep it, its refinement slice or its deltas.
type EvalFunc func(s *speech.Speech) (reward float64, ok bool)

// Node is a materialised search tree node adding one fragment to its
// parent's speech.
type Node struct {
	// Visits counts tree samples traversing this node.
	Visits int64
	// Reward accumulates sampled rewards over those visits.
	Reward float64
	// mean is Reward/float64(Visits) as of the last back-up, 0 before the
	// first: a saturated level reads it once per child and descent, the
	// back-up divides once per sample and path node.
	mean float64
	// Parent is nil for the root.
	Parent *Node
	// fan is the child table; nil until the node is expanded, and for a
	// node no fragment can follow.
	fan *fanout
	// ord is the ordinal of the node's fragment: in the tree's baseline
	// ladder for a child of the root, in the refinement menu elsewhere.
	ord int32
	// depth counts refinements on the path (0 for root and baselines), at
	// most the tree's maxDepth.
	depth int16
	// expanded is set once fan is final. A node at the fragment limit is
	// born expanded.
	expanded bool
}

// fanout is the child table of an expanded node with at least one child.
type fanout struct {
	// sets holds three bitsets of equal length over the ordinals of the
	// menu the children come from, back to back: valid, seen, made.
	sets []uint64
	// kids are the numbers of the made children, in ordinal order: the
	// child with ordinal o is kids[popcount of made below o].
	kids []int32
	// runs ranks the children for the UCT scan; nil until a descent finds
	// every child visited.
	runs *runs
}

// runs is the children of a saturated fan-out in the order the UCT scan
// reads them. Between two descents through the fan-out only the child the
// first one took can change, by one visit, so one child at most is out of
// place and the next descent moves it before it scans.
type runs struct {
	// order holds the children's numbers in runs of equal Visits, counts
	// ascending, each run by mean descending.
	order []int32
	// starts[i] is where run i begins in order; it ends where the next begins.
	starts []int32
	// last is the position in order of the child the previous descent took,
	// lastRun its run and lastVisits its count at the time: the child is out of
	// place if its sample was booked, which its count tells.
	last, lastRun int32
	lastVisits    int64
}

func (f *fanout) valid() []uint64 { return f.sets[:len(f.sets)/3] }
func (f *fanout) seen() []uint64  { w := len(f.sets) / 3; return f.sets[w : 2*w] }
func (f *fanout) made() []uint64  { return f.sets[2*len(f.sets)/3:] }

// has reports whether bit o of set is set; put sets it and drop clears it.
func has(set []uint64, o int) bool { return set[o>>6]&(1<<(o&63)) != 0 }
func put(set []uint64, o int)      { set[o>>6] |= 1 << (o & 63) }
func drop(set []uint64, o int)     { set[o>>6] &^= 1 << (o & 63) }

// popcount returns the number of set bits.
func popcount(set []uint64) int {
	n := 0
	for _, w := range set {
		n += bits.OnesCount64(w)
	}
	return n
}

// rank returns the number of set bits below position o.
func rank(set []uint64, o int) int {
	return popcount(set[:o>>6]) + bits.OnesCount64(set[o>>6]&(1<<(o&63)-1))
}

// nth returns the position of the k-th set bit (from zero) of word w.
func nth(w uint64, k int) int {
	for ; k > 0; k-- {
		w &= w - 1
	}
	return bits.TrailingZeros64(w)
}

// selectBit returns the position of the k-th set bit of set, which must
// have more than k.
func selectBit(set []uint64, k int) int {
	for j, w := range set {
		c := bits.OnesCount64(w)
		if k < c {
			return j<<6 + nth(w, k)
		}
		k -= c
	}
	panic("mcts: selectBit past the last set bit")
}

// Nodes are handed out from blocks of blockSize, so materialising one is a
// bump of a counter and their addresses never move.
const (
	blockShift = 8
	blockSize  = 1 << blockShift
)

type block [blockSize]Node

// fanChunk is the number of fan-outs allocated at a time.
const fanChunk = 32

// The runs of saturated fan-outs are carved from chunks too: runsChunk
// tables and intChunk int32s of order and run starts at a time (a fine answer
// saturates under ten fan-outs of 400 to 480 children, a coarse one about a
// hundred of 40 to 90). A run directory starts with room for dirRuns runs and
// doubles: most saturated fan-outs are deep, reached by a few hundred samples,
// and never hold more, while a root's holds a few dozen.
const (
	runsChunk = 8
	intChunk  = 1024
	dirRuns   = 4
)

// IsLeaf reports whether the node has no children: no fragment can follow
// its speech, or no sample has reached it yet.
func (n *Node) IsLeaf() bool { return n.fan == nil }

// MeanReward returns the node's average sampled reward (0 when unvisited).
func (n *Node) MeanReward() float64 { return n.mean }

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

	// menu and baselines are what child ordinals index: the generator's
	// shared refinement menu and the baseline ladder around the scale
	// estimate. textLen[o] is len(menu[o].Text()).
	menu      []*speech.Refinement
	baselines []*speech.Baseline
	textLen   []int32
	// maxChars and maxDepth are the generator's limits, resolved once: zero
	// means no character limit; no node at maxDepth has children.
	maxChars int
	maxDepth int16
	// compat holds one row of menuWords words per menu ordinal o, bit i set
	// when menu[i] may follow a speech containing menu[o]; compatMade marks
	// the rows built so far.
	menuWords  int
	compat     []uint64
	compatMade []uint64
	// validScratch collects the valid set of one expansion.
	validScratch []uint64

	// blocks holds every node handed out; made is their number.
	blocks []*block
	made   int32
	// fans and fanSets are what is left of the current chunk of fan-outs
	// and of the bitsets that go with them.
	fans    []fanout
	fanSets []uint64
	// nodeCount counts enumerated children plus the root.
	nodeCount int

	// runTabs and ints are what is left of the current chunks of run tables
	// and of the int32s their order and starts are carved from.
	runTabs []runs
	ints    []int32

	// pathScratch is the pooled descent path of the sequential Sample, and
	// scratch the speech it evaluates every leaf through.
	pathScratch []*Node
	scratch     speech.Speech
	scratchRefs []*speech.Refinement
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
		maxChars:  gen.Prefs.MaxCharsEffective(),
		maxDepth:  math.MaxInt16,
		nodeCount: 1,
	}
	if mf := gen.Prefs.MaxFragments; mf > 0 && mf < math.MaxInt16 {
		t.maxDepth = int16(mf)
	}
	t.menuWords = (len(t.menu) + 63) / 64
	t.validScratch = make([]uint64, t.menuWords)
	t.scratch.Preamble = t.preamble
	t.textLen = make([]int32, len(t.menu))
	for o, r := range t.menu {
		t.textLen[o] = int32(len(r.Text()))
	}
	t.root = t.newNode()
	t.prebuild(t.root)
	return t, nil
}

// Root returns the current root node.
func (t *Tree) Root() *Node { return t.root }

// NodeCount returns the number of enumerated nodes: the root plus every
// child an expansion has listed, materialised or not.
func (t *Tree) NodeCount() int { return t.nodeCount }

// NumChildren returns the number of children expansion enumerated below n
// (zero for a leaf and for a node no sample has reached yet).
func (t *Tree) NumChildren(n *Node) int {
	if n.fan == nil {
		return 0
	}
	return popcount(n.fan.valid())
}

// Child returns the i-th child of n in enumeration order, or nil while no
// sample has descended into it: such a child has zero visits and reward.
func (t *Tree) Child(n *Node, i int) *Node {
	f := n.fan
	o := selectBit(f.valid(), i)
	if !has(f.made(), o) {
		return nil
	}
	return t.node(f.kids[rank(f.made(), o)])
}

// Kids calls visit for every child of n that is a node, in enumeration
// order. The children it skips were never descended into.
func (t *Tree) Kids(n *Node, visit func(c *Node)) {
	if n.fan == nil {
		return
	}
	for _, id := range n.fan.kids {
		visit(t.node(id))
	}
}

// Refinement returns the refinement fragment n adds (nil for the root and
// baseline nodes).
func (t *Tree) Refinement(n *Node) *speech.Refinement {
	if n.depth == 0 {
		return nil
	}
	return t.menu[n.ord]
}

// node returns the materialised node with the given number.
func (t *Tree) node(id int32) *Node { return &t.blocks[id>>blockShift][id&(blockSize-1)] }

// newNode hands out the next node.
func (t *Tree) newNode() *Node {
	if int(t.made>>blockShift) == len(t.blocks) {
		t.blocks = append(t.blocks, new(block))
	}
	t.made++
	return t.node(t.made - 1)
}

// child returns the child of n with fragment ordinal o, which must be in
// n's valid set, materialising it on first use.
func (t *Tree) child(n *Node, o int) *Node {
	f := n.fan
	made := f.made()
	r := rank(made, o)
	if has(made, o) {
		return t.node(f.kids[r])
	}
	c := t.newNode()
	c.Parent = n
	c.ord = int32(o)
	if n.Parent != nil {
		c.depth = n.depth + 1
		c.expanded = c.depth >= t.maxDepth
	}
	put(made, o)
	if k := len(f.kids); k == cap(f.kids) {
		// Four to start with, doubling, and never room for more children
		// than the fan-out lists.
		f.kids = append(make([]int32, 0, min(max(4, 2*k), popcount(f.valid()))), f.kids...)
	}
	f.kids = f.kids[:len(f.kids)+1]
	copy(f.kids[r+1:], f.kids[r:])
	f.kids[r] = t.made - 1
	return c
}

// fill rewrites sp in place to the speech n represents: the path's baseline
// and its refinements in order, stored in refs (at least n.depth long).
func (t *Tree) fill(sp *speech.Speech, refs []*speech.Refinement, n *Node) {
	var base *speech.Baseline
	for cur := n; cur.Parent != nil; cur = cur.Parent {
		if cur.depth > 0 {
			refs[cur.depth-1] = t.menu[cur.ord]
		} else {
			base = t.baselines[cur.ord]
		}
	}
	sp.SetFragments(base, refs[:n.depth])
}

// Speech materializes the speech represented by node n (which must belong
// to this tree): the preamble, the path's baseline, and its refinements in
// order. Every call builds a speech of its own.
func (t *Tree) Speech(n *Node) *speech.Speech {
	sp := &speech.Speech{Preamble: t.preamble}
	var refs []*speech.Refinement
	if n.depth > 0 {
		refs = make([]*speech.Refinement, n.depth)
	}
	t.fill(sp, refs, n)
	return sp
}

// compatRow returns the compatibility row of menu ordinal o, building it on
// first use: bit i is set unless menu[i] conflicts with menu[o] (the same
// scope or, under the generator's disjoint-scopes rule, an overlapping one).
func (t *Tree) compatRow(o int) []uint64 {
	w := t.menuWords
	if t.compat == nil {
		t.compat = make([]uint64, len(t.menu)*w)
		t.compatMade = make([]uint64, w)
	}
	row := t.compat[o*w : (o+1)*w]
	if !has(t.compatMade, o) {
		for i, c := range t.menu {
			if !t.gen.Conflicts(t.menu[o], c) {
				put(row, i)
			}
		}
		put(t.compatMade, o)
	}
	return row
}

// expand enumerates the children of n (ST.EXPAND) as a valid set: below the
// root the baselines that fit the character limit, elsewhere the AND of the
// ancestors' compatibility rows minus the refinements that would overflow
// it. No candidate speech is materialised and the menu is not copied.
func (t *Tree) expand(n *Node) {
	n.expanded = true
	valid := t.validScratch
	if n.Parent == nil {
		// The root's sets, over the baseline ladder, are allocated alone and
		// its valid set is built in place at their head.
		w := (len(t.baselines) + 63) / 64
		valid = make([]uint64, w, 3*w)
		for i, b := range t.baselines {
			if t.maxChars <= 0 || len(b.Text()) <= t.maxChars {
				put(valid, i)
			}
		}
	} else {
		for j := range valid {
			valid[j] = ^uint64(0)
		}
		if tail := len(t.menu) & 63; tail != 0 {
			valid[len(valid)-1] = 1<<tail - 1
		}
		// One walk up the path ANDs the ancestors' rows and adds up the main
		// text so far: a space and a refinement per level, then the baseline.
		cur, mainLen := n, int32(0)
		for ; cur.depth > 0; cur = cur.Parent {
			for j, w := range t.compatRow(int(cur.ord)) {
				valid[j] &= w
			}
			mainLen += 1 + t.textLen[cur.ord]
		}
		mainLen += int32(len(t.baselines[cur.ord].Text()))
		if room := int32(t.maxChars) - mainLen - 1; t.maxChars > 0 {
			for o, l := range t.textLen {
				if l > room {
					drop(valid, o)
				}
			}
		}
	}
	count := popcount(valid)
	if count == 0 {
		return
	}
	if n.Parent == nil {
		n.fan = &fanout{sets: valid[:cap(valid)]}
	} else {
		n.fan = t.newFanout()
		copy(n.fan.sets, valid)
	}
	t.nodeCount += count
}

// newFanout hands out an empty fan-out over the refinement menu. They come
// in chunks, like nodes: an answer expands a couple of thousand nodes, and a
// table and its bitsets apiece made expansion two thirds of the planning
// loop's mallocs.
func (t *Tree) newFanout() *fanout {
	w := 3 * t.menuWords
	if len(t.fans) == 0 {
		t.fans = make([]fanout, fanChunk)
		t.fanSets = make([]uint64, fanChunk*w)
	}
	f := &t.fans[0]
	f.sets = t.fanSets[:w:w]
	t.fans, t.fanSets = t.fans[1:], t.fanSets[w:]
	return f
}

// prebuild expands n and its descendants depth-first while the node budget
// lasts; past the budget, descendants expand lazily. Children at the
// fragment limit cannot have children of their own and stay bits.
func (t *Tree) prebuild(n *Node) {
	t.expand(n)
	if n.fan == nil || (n.Parent != nil && n.depth+1 >= t.maxDepth) {
		return
	}
	for j, w := range n.fan.valid() {
		for ; w != 0 && t.nodeCount < t.MaxNodes; w &= w - 1 {
			t.prebuild(t.child(n, j<<6+bits.TrailingZeros64(w)))
		}
	}
}

// maxUCTChild returns the child to descend into (ST.MAXUCTCHILD):
// unvisited children first (random pick), otherwise the maximizer of the
// UCT upper confidence bound, and how many bounds it computed to find it.
// n must have children.
func (t *Tree) maxUCTChild(n *Node) (*Node, int) {
	f := n.fan
	valid := f.valid()
	if t.UniformPolicy {
		return t.child(n, selectBit(valid, t.rng.Intn(popcount(valid)))), 0
	}
	// A child without its seen bit has no visit, made or not. One draw picks
	// among them by position (the RNG stream is pinned by golden tests).
	seen := f.seen()
	unvisited := 0
	for j, w := range valid {
		unvisited += bits.OnesCount64(w &^ seen[j])
	}
	if unvisited > 0 {
		k := t.rng.Intn(unvisited)
		for j, w := range valid {
			w &^= seen[j]
			c := bits.OnesCount64(w)
			if k < c {
				return t.child(n, j<<6+nth(w, k)), 0
			}
			k -= c
		}
	}
	// Every child has a visit, so every child is a node, and the one to take
	// is the first in ordinal order whose Reward/Visits + sqrt(2 ln N / Visits)
	// is the maximum. The quotient is the child's cached mean and the square
	// root is one float for a whole run, so no child of a run scores above its
	// head, and those that score the same follow the head directly.
	r := f.runs
	if r == nil {
		r = t.newRuns(f)
	} else if c := t.node(r.order[r.last]); c.Visits != r.lastVisits {
		t.refile(r, c)
	}
	twoLogN := 2 * math.Log(float64(n.Visits))
	var best *Node
	bestScore, scored := math.Inf(-1), 0
	for i, s := range r.starts {
		c := t.node(r.order[s])
		term := math.Sqrt(twoLogN / float64(c.Visits))
		score := c.mean + term
		scored++
		if score < bestScore {
			continue
		}
		if score > bestScore {
			bestScore, best = score, nil
		}
		for j, end := s, r.end(i); ; {
			if best == nil || c.ord < best.ord {
				best, r.last, r.lastRun = c, j, int32(i)
			}
			if j++; j == end {
				break
			}
			c = t.node(r.order[j])
			scored++
			if c.mean+term != score {
				break
			}
		}
	}
	r.lastVisits = best.Visits
	return best, scored
}

// end returns where run i ends in order.
func (r *runs) end(i int) int32 {
	if i+1 < len(r.starts) {
		return r.starts[i+1]
	}
	return int32(len(r.order))
}

// carve hands out n int32s of the tree's current chunk, with no room to grow.
func (t *Tree) carve(n int) []int32 {
	if len(t.ints) < n {
		t.ints = make([]int32, max(n, intChunk))
	}
	s := t.ints[:n:n]
	t.ints = t.ints[n:]
	return s
}

// newRuns orders the children of f, all of them visited, into runs. Each was
// drawn once while it was unvisited, so as a rule they have one visit apiece
// and form one run.
func (t *Tree) newRuns(f *fanout) *runs {
	if len(t.runTabs) == 0 {
		t.runTabs = make([]runs, runsChunk)
	}
	r := &t.runTabs[0]
	t.runTabs = t.runTabs[1:]
	f.runs = r
	r.order = t.carve(len(f.kids))
	copy(r.order, f.kids)
	slices.SortFunc(r.order, func(a, b int32) int {
		x, y := t.node(a), t.node(b)
		if x.Visits != y.Visits {
			return cmp.Compare(x.Visits, y.Visits)
		}
		return cmp.Compare(y.mean, x.mean)
	})
	r.starts = t.carve(min(dirRuns, len(r.order)))[:0]
	for j, id := range r.order {
		if j == 0 || t.node(id).Visits != t.node(r.order[j-1]).Visits {
			t.addRun(r, len(r.starts), int32(j))
		}
	}
	r.lastVisits = t.node(r.order[0]).Visits
	return r
}

// addRun makes start the beginning of a new run i. A full directory moves to
// one twice the size; there are never more runs than children.
func (t *Tree) addRun(r *runs, i int, start int32) {
	if k := len(r.starts); k == cap(r.starts) {
		r.starts = append(t.carve(min(2*k, len(r.order)))[:0], r.starts...)
	}
	r.starts = slices.Insert(r.starts, i, start)
}

// refile moves c, the child at r.last, whose count went up by one since it
// was put there, to the run of its new count: the next run if that is its
// count, where c's new mean decides the place, or a run of c alone.
func (t *Tree) refile(r *runs, c *Node) {
	order, p, i := r.order, r.last, int(r.lastRun)
	id, end := order[p], r.end(i)
	// c goes to to-1 and what lies between moves down one.
	to := end
	joins := i+1 < len(r.starts) && t.node(order[end]).Visits == c.Visits
	if joins {
		for hi := r.end(i + 1); to < hi; {
			if mid := (to + hi) / 2; t.node(order[mid]).mean >= c.mean {
				to = mid + 1
			} else {
				hi = mid
			}
		}
	}
	copy(order[p:to-1], order[p+1:to])
	order[to-1] = id
	switch alone := end-r.starts[i] == 1; {
	case joins && alone:
		// c's old run is empty: the next one takes its place and its start.
		r.starts = slices.Delete(r.starts, i+1, i+2)
	case joins:
		r.starts[i+1]--
	case !alone:
		t.addRun(r, i+1, end-1)
	}
}

// backUp books one sample of reward r on every node of path: a visit, which
// flips the node's seen bit in its parent's fan-out when it is the first, the
// reward, and the mean the next descent through the parent reads.
func backUp(path []*Node, r float64) {
	for _, n := range path {
		if n.Visits == 0 && n.Parent != nil {
			put(n.Parent.fan.seen(), int(n.ord))
		}
		n.Visits++
		n.Reward += r
		n.mean = n.Reward / float64(n.Visits)
	}
}

// descend walks from the root to a leaf, expanding on first visit, and
// returns the path appended to path.
func (t *Tree) descend(path []*Node) []*Node {
	n := t.root
	for {
		path = append(path, n)
		if !n.expanded {
			t.expand(n)
		}
		if n.fan == nil {
			return path
		}
		n, _ = t.maxUCTChild(n)
	}
}

// Sample performs one MCTS round (Algorithm 2's SAMPLE): descend from the
// current root to a leaf via UCT, evaluate the leaf's complete speech
// against a database sample, and update statistics along the path. It
// returns false when the evaluator could not produce a reward (nothing is
// updated then).
func (t *Tree) Sample() bool {
	// The descent path is pooled across rounds: its length is bounded by
	// the fragment limit, and one slice per round was the planner loop's
	// dominant allocation. So is the speech: a leaf is read once, by this
	// call, and keeping one per leaf was most of what an answer allocated.
	path := t.descend(t.pathScratch[:0])
	t.pathScratch = path
	leaf := path[len(path)-1]
	for int(leaf.depth) > len(t.scratchRefs) {
		t.scratchRefs = append(t.scratchRefs, nil)
	}
	t.fill(&t.scratch, t.scratchRefs, leaf)
	r, ok := t.eval(&t.scratch)
	if !ok {
		return false
	}
	backUp(path, r)
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
	t.Kids(t.root, func(c *Node) {
		if c.Visits > 0 {
			if score := c.MeanReward(); best == nil || score > bestScore {
				best = c
				bestScore = score
			}
		}
	})
	if best == nil {
		return t.child(t.root, selectBit(t.root.fan.valid(), 0))
	}
	return best
}

// Terminal reports whether no fragment can follow the current root's
// speech, enumerating its children if no sample has yet.
func (t *Tree) Terminal() bool {
	if !t.root.expanded {
		t.expand(t.root)
	}
	return t.root.fan == nil
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
// length in fragments relative to the root). A child that is not a node is
// of unknown height and counts as one level.
func (t *Tree) Depth() int {
	var walk func(n *Node) int
	walk = func(n *Node) int {
		if n.fan == nil {
			return 0
		}
		max := 1
		t.Kids(n, func(c *Node) {
			if d := 1 + walk(c); d > max {
				max = d
			}
		})
		return max
	}
	return walk(t.root)
}
