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
// fixed-size blocks owned by the tree, which numbers them: a node is 32 bytes,
// its reward and cached mean, an int32 visit count, its parent's number, its
// fan-out's number (which also says whether it is expanded) and two 16-bit
// fields, ordinal and depth. Fan-outs are numbered the same way and come in
// chunks whose bitsets sit at a place their number fixes, so a fan-out record
// is its children's numbers and the number of its runs. A leaf is never made
// into a speech: the sequential sampler evaluates it through one scratch
// speech it rewrites in place, and Speech builds a real one for the few nodes
// a caller asks about. Nothing here is safe for concurrent use.
//
// The blocks, the fan-out chunks, the slabs that bitsets, child lists and run
// tables are carved from, and the compatibility matrix are the tree's arena,
// and the tree owns it alone. An answer's tree is garbage once its speech is
// built, so Release ends the tree and hands its arena to the next tree built,
// which zeroes each chunk as it reaches it: a recycled tree is step for step
// the fresh one. Nothing in the arena is sized for one tree's menu or one
// fan-out's children, so any tree reuses it whole. The free list the arenas
// wait in is the only state the package shares between trees, and it starts
// no goroutine.
package mcts

import (
	"cmp"
	"context"
	"errors"
	"math"
	"math/bits"
	"math/rand"
	"slices"

	"repro/internal/freelist"
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
	// Reward accumulates sampled rewards over the node's visits.
	Reward float64
	// mean is Reward/float64(Visits) as of the last back-up, 0 before the
	// first: a saturated level reads it once per child and descent, the
	// back-up divides once per sample and path node.
	mean float64
	// Visits counts tree samples traversing this node. No node has more than
	// the root, and Sample books none that would take the root past
	// math.MaxInt32.
	Visits int32
	// parent is the number of the parent node; 0, which is no node's number,
	// for the root the tree was built with.
	parent int32
	// fan is 0 until the node is expanded, noFan once it is and no fragment
	// can follow it, and otherwise the number of its fan-out. A node at the
	// fragment limit is born expanded.
	fan int32
	// ord is the ordinal of the node's fragment: in the tree's baseline
	// ladder for a child of the root, in the refinement menu elsewhere.
	ord uint16
	// depth counts refinements on the path (0 for root and baselines), at
	// most the tree's maxDepth.
	depth uint16
}

// noFan is Node.fan of an expanded node without children.
const noFan = -1

// fanout is the child table of an expanded node with at least one child. Its
// three bitsets over the ordinals of the menu the children come from, valid,
// seen and made, are where Tree.sets finds them by the fan-out's number.
type fanout struct {
	// kids are the numbers of the made children, in ordinal order: the
	// child with ordinal o is kids[popcount of made below o]. The list is
	// carved from the tree's child-list slab and moves to a piece twice the
	// size when it is full.
	kids []int32
	// runs is the number of the table that ranks the children for the UCT
	// scan; 0 until a descent finds every child visited.
	runs int32
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
	last, lastRun, lastVisits int32
}

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
// bump of a counter and their addresses never move. Node n is entry
// n&(blockSize-1) of block n>>blockShift; fan-outs and run tables are numbered
// and found the same way. Number 0 of each is none: its slot is never used.
const (
	blockShift = 8
	blockSize  = 1 << blockShift
)

type block [blockSize]Node

// Fan-outs are allocated fanChunk at a time, with the bitsets of the chunk in
// one piece of the word slab: fan-out f's are at (f&(fanChunk-1))*3*menuWords
// in its chunk's. The root, the first node expanded, has fan-out rootFan,
// whose bitsets are over the baseline ladder and carved on their own.
const (
	fanShift = 5
	fanChunk = 1 << fanShift
	rootFan  = 1
)

type fanBlock [fanChunk]fanout

// The runs of saturated fan-outs are carved from chunks too: runsChunk
// tables and intChunk int32s of order and run starts at a time (a fine answer
// saturates under ten fan-outs of 400 to 480 children, a coarse one about a
// hundred of 40 to 90). A run directory starts with room for dirRuns runs and
// doubles: most saturated fan-outs are deep, reached by a few hundred samples,
// and never hold more, while a root's holds a few dozen. Child lists come from
// int32 chunks of the same size, and bitsets from chunks of wordChunk words,
// five fan-out chunks' worth on a fine menu.
const (
	runsShift = 3
	runsChunk = 1 << runsShift
	intChunk  = 1024
	wordChunk = 1 << 12
	dirRuns   = 4
)

type runsBlock [runsChunk]runs

// arena is the memory a tree numbers its nodes, fan-outs and run tables in:
// the directories of their chunks, the slabs of chunks that bitsets, child
// lists and run tables are carved from, and the compatibility matrix. The
// chunks past what the tree has reached are a released tree's, waiting to be
// zeroed and reused.
type arena struct {
	blocks  []*block
	fans    []*fanBlock
	fanSets [][]uint64
	runs    []*runsBlock
	// intChunks are what run tables are carved from, kidChunks child lists
	// and wordChunks bitsets.
	intChunks  [][]int32
	kidChunks  [][]int32
	wordChunks [][]uint64
	// compat holds one row of menuWords words per menu ordinal o, bit i set
	// when menu[i] may follow a speech containing menu[o]; compatMade marks
	// the rows built so far. Both are empty until the first row is asked for.
	compat     []uint64
	compatMade []uint64
	// textLen[o] is menu[o].TextLen(): the menu's texts are rendered only
	// for the sentences spoken.
	textLen []int32
}

// arenas holds the arenas of released trees.
var arenas = freelist.New[arena]()

// firstOf reports whether number id is the first a tree hands out in its
// chunk: the chunk's first entry, or 1, since number 0 is none.
func firstOf(id int32, shift uint) bool { return id&(1<<shift-1) == 0 || id == 1 }

// reuse makes chunk c of dir, which a tree has just reached, an empty one: the
// recycled chunk there, zeroed, or a new one.
func reuse[T any](dir []*T, c int) []*T {
	if c < len(dir) {
		var zero T
		*dir[c] = zero
		return dir
	}
	return append(dir, new(T))
}

// zeroed returns s cut to n zeroed elements if it has the capacity, and a new
// slice of n otherwise.
func zeroed[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// carve hands out n zeroed elements of a slab, with no room to grow: from
// *free, what is left of the chunk the slab's tree reached last, or else from
// chunk *next of chunks, which it moves on to. A recycled chunk is zeroed and
// used whole, whatever size an earlier tree made it; one too small for n is
// replaced by a new one of max(n, size) elements. A tree starts every slab
// with *next at 0, on the chunks a released tree left.
func carve[E any](chunks *[][]E, free *[]E, next *int, n, size int) []E {
	if len(*free) < n {
		if *next == len(*chunks) {
			*chunks = append(*chunks, nil)
		}
		c := (*chunks)[*next]
		c = zeroed(c, max(n, size, cap(c)))
		(*chunks)[*next] = c
		*free = c
		*next++
	}
	s := (*free)[:n:n]
	*free = (*free)[n:]
	return s
}

// IsLeaf reports whether the node has no children: no fragment can follow
// its speech, or no sample has reached it yet.
func (n *Node) IsLeaf() bool { return n.fan <= 0 }

// MeanReward returns the node's average sampled reward (0 when unvisited).
func (n *Node) MeanReward() float64 { return n.mean }

// Tree is the speech search tree with its generator and evaluator.
type Tree struct {
	// root is the number of the current root.
	root     int32
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
	// estimate.
	menu      []*speech.Refinement
	baselines []*speech.Baseline
	// maxChars and maxDepth are the generator's limits, resolved once: zero
	// means no character limit; no node at maxDepth has children.
	maxChars int
	maxDepth uint16
	// maxTextLen is the longest refinement text of the menu: an expansion
	// with that much room left drops nothing for length.
	maxTextLen int32
	// menuWords is the length of a bitset over the menu.
	menuWords int
	// validScratch collects the valid set of one expansion.
	validScratch []uint64

	arena
	// nextNode, nextFan and nextRuns are the numbers the next node, fan-out
	// and run table get; rootSets are the root fan-out's bitsets.
	nextNode int32
	nextFan  int32
	nextRuns int32
	rootSets []uint64
	// nodeCount counts enumerated children plus the root.
	nodeCount int
	// ints is what is left of the current chunk of int32s that run tables'
	// order and starts are carved from, and nextInts the index of the next;
	// kidInts and nextKids are the same for child lists, words and nextWords
	// for bitsets.
	ints      []int32
	nextInts  int
	kidInts   []int32
	nextKids  int
	words     []uint64
	nextWords int

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
// lazily when sampling first reaches them. The tree is built on the arena of
// the tree released last if one is waiting.
func NewTreeWithCap(gen *speech.Generator, scale float64, eval EvalFunc, rng *rand.Rand, maxNodes int) (*Tree, error) {
	a := arenas.Get()
	if a == nil {
		a = new(arena)
	}
	return newTree(gen, scale, eval, rng, maxNodes, a)
}

// newTree is NewTreeWithCap on arena a.
func newTree(gen *speech.Generator, scale float64, eval EvalFunc, rng *rand.Rand, maxNodes int, a *arena) (*Tree, error) {
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
		maxChars:  gen.Prefs.MaxChars,
		maxDepth:  math.MaxUint16,
		nodeCount: 1,
		nextNode:  1,
		nextFan:   rootFan,
		nextRuns:  1,
	}
	if len(t.menu) > math.MaxUint16 || len(t.baselines) > math.MaxUint16 {
		return nil, errors.New("mcts: a node's ordinal is 16 bits, and the menu or the baseline ladder is wider")
	}
	if mf := gen.Prefs.MaxFragments; mf > 0 && mf < math.MaxUint16 {
		t.maxDepth = uint16(mf)
	}
	t.menuWords = (len(t.menu) + 63) / 64
	t.scratch.Preamble = t.preamble
	t.arena = *a
	t.validScratch = t.carveWords(t.menuWords)
	t.textLen = t.textLen[:0]
	for _, r := range t.menu {
		t.textLen = append(t.textLen, int32(r.TextLen()))
	}
	if len(t.textLen) > 0 {
		t.maxTextLen = slices.Max(t.textLen)
	}
	t.compat = t.compat[:0]
	t.root = t.newNode()
	t.prebuild(t.node(t.root), t.root)
	return t, nil
}

// Release ends the tree and hands its arena to the next tree built. Nothing
// the tree handed out may be used after it: its nodes become another tree's.
// The tree itself is zeroed, so a call on it panics; a second Release does
// nothing.
func (t *Tree) Release() {
	if t.blocks != nil {
		arenas.Put(t.detach())
	}
}

// detach ends the tree and returns its arena.
func (t *Tree) detach() *arena {
	a := new(arena)
	*a = t.arena
	*t = Tree{}
	return a
}

// Root returns the current root node.
func (t *Tree) Root() *Node { return t.node(t.root) }

// NodeCount returns the number of enumerated nodes: the root plus every
// child an expansion has listed, materialised or not.
func (t *Tree) NodeCount() int { return t.nodeCount }

// NumChildren returns the number of children expansion enumerated below n
// (zero for a leaf and for a node no sample has reached yet).
func (t *Tree) NumChildren(n *Node) int {
	if n.fan <= 0 {
		return 0
	}
	return popcount(t.valid(n.fan))
}

// Child returns the i-th child of n in enumeration order, or nil while no
// sample has descended into it: such a child has zero visits and reward.
func (t *Tree) Child(n *Node, i int) *Node {
	if id := t.kid(n.fan, selectBit(t.valid(n.fan), i)); id != 0 {
		return t.node(id)
	}
	return nil
}

// Kids calls visit for every child of n that is a node, in enumeration
// order. The children it skips were never descended into.
func (t *Tree) Kids(n *Node, visit func(c *Node)) {
	if n.fan <= 0 {
		return
	}
	for _, id := range t.fanout(n.fan).kids {
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

// newNode hands out the number of a new node.
func (t *Tree) newNode() int32 {
	if firstOf(t.nextNode, blockShift) {
		t.blocks = reuse(t.blocks, int(t.nextNode>>blockShift))
	}
	t.nextNode++
	return t.nextNode - 1
}

// fanout returns the record of fan-out f.
func (t *Tree) fanout(f int32) *fanout { return &t.fans[f>>fanShift][f&(fanChunk-1)] }

// sets returns the three bitsets of fan-out f back to back: valid, seen and
// made, of equal length.
func (t *Tree) sets(f int32) []uint64 {
	if f == rootFan {
		return t.rootSets
	}
	w := 3 * t.menuWords
	i := int(f&(fanChunk-1)) * w
	return t.fanSets[f>>fanShift][i : i+w : i+w]
}

func (t *Tree) valid(f int32) []uint64 { s := t.sets(f); return s[:len(s)/3] }
func (t *Tree) seen(f int32) []uint64  { s := t.sets(f); w := len(s) / 3; return s[w : 2*w] }
func (t *Tree) made(f int32) []uint64  { s := t.sets(f); return s[2*len(s)/3:] }

// kid returns the number of the child with ordinal o of fan-out f, or 0 if
// that child is not a node.
func (t *Tree) kid(f int32, o int) int32 {
	made := t.made(f)
	if !has(made, o) {
		return 0
	}
	return t.fanout(f).kids[rank(made, o)]
}

// child returns the number and the node of the child of n, node id, with
// fragment ordinal o, which must be in n's valid set, materialising it on
// first use.
func (t *Tree) child(n *Node, id int32, o int) (int32, *Node) {
	f, made := t.fanout(n.fan), t.made(n.fan)
	r := rank(made, o)
	if has(made, o) {
		return f.kids[r], t.node(f.kids[r])
	}
	cid := t.newNode()
	c := t.node(cid)
	c.parent = id
	c.ord = uint16(o)
	if n.parent != 0 {
		c.depth = n.depth + 1
		if c.depth >= t.maxDepth {
			c.fan = noFan
		}
	}
	put(made, o)
	if k := len(f.kids); k == cap(f.kids) {
		// Four to start with, doubling, and never room for more children
		// than the fan-out lists.
		f.kids = append(t.carveKids(min(max(4, 2*k), popcount(t.valid(n.fan))))[:0], f.kids...)
	}
	f.kids = f.kids[:len(f.kids)+1]
	copy(f.kids[r+1:], f.kids[r:])
	f.kids[r] = cid
	return cid, c
}

// fill rewrites sp in place to the speech n represents: the path's baseline
// and its refinements in order, stored in refs (at least n.depth long).
func (t *Tree) fill(sp *speech.Speech, refs []*speech.Refinement, n *Node) {
	var base *speech.Baseline
	for cur := n; cur.parent != 0; cur = t.node(cur.parent) {
		if cur.depth == 0 {
			base = t.baselines[cur.ord]
			break
		}
		refs[cur.depth-1] = t.menu[cur.ord]
	}
	sp.SetFragments(base, refs[:n.depth])
}

// Speech materializes the speech represented by node n (which must belong
// to this tree): the preamble, the path's baseline, and its refinements in
// order. Every call builds a speech of its own, which holds copies of the
// refinements with their text rendered (speech.Detach): it stays as it is
// after the tree and the generator's menu are released, and goroutines may
// render it at once.
func (t *Tree) Speech(n *Node) *speech.Speech {
	sp := &speech.Speech{Preamble: t.preamble}
	var refs []*speech.Refinement
	if n.depth > 0 {
		refs = make([]*speech.Refinement, n.depth)
	}
	t.fill(sp, refs, n)
	speech.Detach(refs)
	return sp
}

// compatRow returns the compatibility row of menu ordinal o, building it on
// first use: bit i is set unless menu[i] conflicts with menu[o] (the same
// scope or, under the generator's disjoint-scopes rule, an overlapping one).
func (t *Tree) compatRow(o int) []uint64 {
	w := t.menuWords
	if len(t.compat) == 0 {
		t.compat = zeroed(t.compat, len(t.menu)*w)
		t.compatMade = zeroed(t.compatMade, w)
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
	n.fan = noFan
	valid := t.validScratch
	if n.parent == 0 {
		// The root's sets, over the baseline ladder, are carved alone and its
		// valid set is built in place at their head.
		w := (len(t.baselines) + 63) / 64
		valid = t.carveWords(3 * w)[:w]
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
		for ; cur.depth > 0; cur = t.node(cur.parent) {
			for j, w := range t.compatRow(int(cur.ord)) {
				valid[j] &= w
			}
			mainLen += 1 + t.textLen[cur.ord]
		}
		mainLen += int32(len(t.baselines[cur.ord].Text()))
		if room := int32(t.maxChars) - mainLen - 1; t.maxChars > 0 && room < t.maxTextLen {
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
	// The root is the first node expanded, so its fan-out is rootFan, and its
	// sets stay where they were built.
	n.fan = t.newFanout()
	if n.parent == 0 {
		t.rootSets = valid[:cap(valid)]
	} else {
		copy(t.sets(n.fan), valid)
	}
	t.nodeCount += count
}

// newFanout hands out the number of an empty fan-out. They come in chunks,
// like nodes: an answer expands a couple of thousand nodes, and a table and
// its bitsets apiece made expansion two thirds of the planning loop's
// mallocs. A chunk's bitsets are carved from the word slab, so a recycled
// arena serves a wider menu than its last tree's with the words that tree's
// extra fan-outs used.
func (t *Tree) newFanout() int32 {
	if firstOf(t.nextFan, fanShift) {
		c := int(t.nextFan >> fanShift)
		t.fans = reuse(t.fans, c)
		if c == len(t.fanSets) {
			t.fanSets = append(t.fanSets, nil)
		}
		t.fanSets[c] = t.carveWords(fanChunk * 3 * t.menuWords)
	}
	t.nextFan++
	return t.nextFan - 1
}

// prebuild expands n, node id, and its descendants depth-first while the
// node budget lasts; past the budget, descendants expand lazily. Children at
// the fragment limit cannot have children of their own and stay bits.
func (t *Tree) prebuild(n *Node, id int32) {
	t.expand(n)
	if n.fan < 0 || (n.parent != 0 && n.depth+1 >= t.maxDepth) {
		return
	}
	for j, w := range t.valid(n.fan) {
		for ; w != 0 && t.nodeCount < t.MaxNodes; w &= w - 1 {
			c, cn := t.child(n, id, j<<6+bits.TrailingZeros64(w))
			t.prebuild(cn, c)
		}
	}
}

// maxUCTChild returns the number and the node of the child of n, node id, to
// descend into (ST.MAXUCTCHILD): unvisited children first (random pick),
// otherwise the maximizer of the UCT upper confidence bound, and how many
// bounds it computed to find it. n must have children.
func (t *Tree) maxUCTChild(n *Node, id int32) (int32, *Node, int) {
	sets := t.sets(n.fan)
	w := len(sets) / 3
	valid := sets[:w]
	if t.UniformPolicy {
		c, cn := t.child(n, id, selectBit(valid, t.rng.Intn(popcount(valid))))
		return c, cn, 0
	}
	// A child without its seen bit has no visit, made or not. One draw picks
	// among them by position (the RNG stream is pinned by golden tests).
	seen := sets[w : 2*w]
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
				c, cn := t.child(n, id, j<<6+nth(w, k))
				return c, cn, 0
			}
			k -= c
		}
	}
	// Every child has a visit, so every child is a node, and the one to take
	// is the first in ordinal order whose Reward/Visits + sqrt(2 ln N / Visits)
	// is the maximum. The quotient is the child's cached mean and the square
	// root is one float for a whole run, so no child of a run scores above its
	// head, and those that score the same follow the head directly. Runs
	// ascend in visits, so a run's square root is at most the last one taken,
	// and a head whose mean plus that one is below the best score cannot
	// reach it: float addition is monotone, so skipping it changes nothing.
	var r *runs
	if f := t.fanout(n.fan); f.runs == 0 {
		r = t.newRuns(f)
	} else {
		r = t.runTable(f.runs)
		if c := t.node(r.order[r.last]); c.Visits != r.lastVisits {
			t.refile(r, c)
		}
	}
	twoLogN := twoLog(n.Visits)
	var best *Node
	bestScore, prevTerm, scored := math.Inf(-1), math.Inf(1), 0
	for i, s := range r.starts {
		c := t.node(r.order[s])
		if c.mean+prevTerm < bestScore {
			continue
		}
		term := math.Sqrt(twoLogN / float64(c.Visits))
		prevTerm = term
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
	return r.order[r.last], best, scored
}

// twoLogTable holds 2 ln n for the visit counts most nodes have.
var twoLogTable = func() (tab [1 << 10]float64) {
	for n := range tab {
		tab[n] = 2 * math.Log(float64(n))
	}
	return tab
}()

// twoLog returns 2 ln n, the same float whether from the table or computed.
func twoLog(n int32) float64 {
	if uint32(n) < uint32(len(twoLogTable)) {
		return twoLogTable[n]
	}
	return 2 * math.Log(float64(n))
}

// runTable returns run table k.
func (t *Tree) runTable(k int32) *runs { return &t.runs[k>>runsShift][k&(runsChunk-1)] }

// end returns where run i ends in order.
func (r *runs) end(i int) int32 {
	if i+1 < len(r.starts) {
		return r.starts[i+1]
	}
	return int32(len(r.order))
}

// carveInts hands out n zeroed int32s for a run table, with no room to grow.
func (t *Tree) carveInts(n int) []int32 {
	return carve(&t.intChunks, &t.ints, &t.nextInts, n, intChunk)
}

// carveKids hands out n zeroed int32s for a child list, with no room to grow.
func (t *Tree) carveKids(n int) []int32 {
	return carve(&t.kidChunks, &t.kidInts, &t.nextKids, n, intChunk)
}

// carveWords hands out n zeroed bitset words, with no room to grow. A new
// chunk holds as many pieces of n as fit in wordChunk words, so a fan-out
// chunk's bitsets waste none of it.
func (t *Tree) carveWords(n int) []uint64 {
	return carve(&t.wordChunks, &t.words, &t.nextWords, n, wordChunk/max(n, 1)*n)
}

// newRuns orders the children of f, all of them visited, into runs. Each was
// drawn once while it was unvisited, so as a rule they have one visit apiece
// and form one run.
func (t *Tree) newRuns(f *fanout) *runs {
	if firstOf(t.nextRuns, runsShift) {
		t.runs = reuse(t.runs, int(t.nextRuns>>runsShift))
	}
	f.runs = t.nextRuns
	t.nextRuns++
	r := t.runTable(f.runs)
	r.order = t.carveInts(len(f.kids))
	copy(r.order, f.kids)
	slices.SortFunc(r.order, func(a, b int32) int {
		x, y := t.node(a), t.node(b)
		if x.Visits != y.Visits {
			return cmp.Compare(x.Visits, y.Visits)
		}
		return cmp.Compare(y.mean, x.mean)
	})
	r.starts = t.carveInts(min(dirRuns, len(r.order)))[:0]
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
		r.starts = append(t.carveInts(min(2*k, len(r.order)))[:0], r.starts...)
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
// flips the node's seen bit in the fan-out of the node before it on the path
// when it is the first, the reward, and the mean the next descent through the
// parent reads. The root heads the path; if it has no visit, the tree advanced
// to it unvisited, and its parent is never descended through again.
func (t *Tree) backUp(path []*Node, r float64) {
	for i, n := range path {
		if n.Visits == 0 && i > 0 {
			put(t.seen(path[i-1].fan), int(n.ord))
		}
		n.Visits++
		n.Reward += r
		n.mean = n.Reward / float64(n.Visits)
	}
}

// descend walks from the root to a leaf, expanding on first visit, and
// returns the path appended to path.
func (t *Tree) descend(path []*Node) []*Node {
	for id, n := t.root, t.node(t.root); ; {
		path = append(path, n)
		if n.fan == 0 {
			t.expand(n)
		}
		if n.fan < 0 {
			return path
		}
		id, n, _ = t.maxUCTChild(n, id)
	}
}

// Sample performs one MCTS round (Algorithm 2's SAMPLE): descend from the
// current root to a leaf via UCT, evaluate the leaf's complete speech
// against a database sample, and update statistics along the path. It
// returns false when the evaluator could not produce a reward, and when the
// root has math.MaxInt32 visits, more than any answer's planning comes near
// (nothing is updated then).
func (t *Tree) Sample() bool {
	if t.node(t.root).Visits == math.MaxInt32 {
		return false
	}
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
	t.backUp(path, r)
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
	root := t.node(t.root)
	if root.IsLeaf() {
		return nil
	}
	var best *Node
	var bestScore float64
	t.Kids(root, func(c *Node) {
		if c.Visits > 0 {
			if score := c.MeanReward(); best == nil || score > bestScore {
				best = c
				bestScore = score
			}
		}
	})
	if best == nil {
		_, c := t.child(root, t.root, selectBit(t.valid(root.fan), 0))
		return c
	}
	return best
}

// Terminal reports whether no fragment can follow the current root's
// speech, enumerating its children if no sample has yet.
func (t *Tree) Terminal() bool {
	root := t.node(t.root)
	if root.fan == 0 {
		t.expand(root)
	}
	return root.fan < 0
}

// Advance makes child the new root, retaining its subtree statistics so
// planning never restarts from scratch (the paper's root-reuse).
// It panics if child is not a child of the current root.
func (t *Tree) Advance(child *Node) {
	if child.parent == t.root {
		if id := t.kid(t.node(t.root).fan, int(child.ord)); id != 0 && t.node(id) == child {
			t.root = id
			return
		}
	}
	panic("mcts: Advance target is not a child of the root")
}
