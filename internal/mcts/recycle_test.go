package mcts

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/datagen"
	"repro/internal/olap"
	"repro/internal/speech"
)

// coarseGen is the generator of a coarse query, region by season with the
// full percent menu: 90 refinements, the explore_coarse shape.
func coarseGen(t testing.TB) *speech.Generator {
	t.Helper()
	d, err := datagen.Flights(datagen.FlightsConfig{Rows: 20000, Seed: 1})
	if err != nil {
		t.Fatalf("Flights: %v", err)
	}
	q := olap.Query{
		Fct: olap.Avg, Col: "cancelled",
		ColDescription: "average cancellation probability",
		GroupBy: []olap.GroupBy{
			{Hierarchy: d.HierarchyByName("start airport"), Level: 1},
			{Hierarchy: d.HierarchyByName("flight date"), Level: 1},
		},
	}
	s, err := olap.NewSpace(d, q)
	if err != nil {
		t.Fatalf("NewSpace: %v", err)
	}
	return speech.NewGenerator(s, speech.DefaultPrefs(), speech.PercentFormat)
}

// drainArenas empties the free list of released arenas, so the next tree
// builds its arena new. A collection does not: the list ignores the
// collector.
func drainArenas() { arenas.Drain() }

// coldTree builds a tree the way NewTreeWithCap does after the free list is
// drained, and fails t unless the tree built its arena new. The free list
// holds a released tree's arena first, so a drain that does nothing is
// caught whatever ran before.
func coldTree(t *testing.T, gen *speech.Generator, seed int64, maxNodes int) *Tree {
	t.Helper()
	warm, err := NewTreeWithCap(narrowGen(t), 0.02, hashEval(0, continuous, new(float64)), rand.New(rand.NewSource(seed)), 1<<30)
	if err != nil {
		t.Fatalf("NewTreeWithCap: %v", err)
	}
	warm.Release()
	drainArenas()
	misses := arenas.Misses()
	tree, err := NewTreeWithCap(gen, 0.02, hashEval(0, continuous, new(float64)), rand.New(rand.NewSource(seed)), maxNodes)
	if err != nil {
		t.Fatalf("NewTreeWithCap: %v", err)
	}
	if arenas.Misses() != misses+1 {
		t.Fatal("the tree was built on a released arena: the drain left it in the free list")
	}
	return tree
}

// planned is what a planned tree is compared on: its enumerated size, the
// ordinal of the child BestChild returns, and the visits and reward bits of
// every child of the root that is a node.
type planned struct {
	nodes   int
	best    uint16
	visits  []int32
	rewards []uint64
}

// plan runs two windows of samples on tree with a commit between them, checks
// its accounting and returns what it planned.
func plan(t *testing.T, tree *Tree, samples int) planned {
	t.Helper()
	window := func() int {
		done := 0
		for i := 0; i < samples/2; i++ {
			if tree.Sample() {
				done++
			}
		}
		return done
	}
	window()
	best := tree.BestChild()
	tree.Advance(best)
	committed := int(best.Visits)
	checkAccounting(t, tree, committed+window())
	p := planned{nodes: tree.NodeCount(), best: tree.BestChild().ord}
	tree.Kids(tree.Root(), func(c *Node) {
		p.visits = append(p.visits, c.Visits)
		p.rewards = append(p.rewards, math.Float64bits(c.Reward))
	})
	return p
}

// TestRecycledTreeMatchesFresh: a tree built on a released tree's arena plans
// bit for bit what a tree built on a fresh one does. The menus change width
// from tree to tree, so a recycled bitset slab is too small for the next
// menu as often as it is too large, and the fine menu comes back last, on
// chunks a narrower tree zeroed and used.
func TestRecycledTreeMatchesFresh(t *testing.T) {
	fine := fineGen(t)
	menus := []struct {
		name   string
		gen    *speech.Generator
		lo, hi int
	}{
		{"fine", fine, 410, 480},
		{"coarse", coarseGen(t), 90, 90},
		{"narrow", narrowGen(t), 1, 63},
		{"fine again", fine, 410, 480},
	}
	const samples = 6000
	build := func(gen *speech.Generator, seed int64, a *arena) *Tree {
		tree, err := newTree(gen, 0.02, hashEval(7, quarters, new(float64)), rand.New(rand.NewSource(seed)), 20000, a)
		if err != nil {
			t.Fatalf("newTree: %v", err)
		}
		return tree
	}
	want := make([]planned, len(menus))
	for i, m := range menus {
		if w := len(m.gen.Refinements(nil)); w < m.lo || w > m.hi {
			t.Fatalf("the %s menu has %d refinements, want %d to %d", m.name, w, m.lo, m.hi)
		}
		want[i] = plan(t, build(m.gen, int64(i), new(arena)), samples)
	}
	a := new(arena)
	for i, m := range menus {
		tree := build(m.gen, int64(i), a)
		got := plan(t, tree, samples)
		if got.nodes != want[i].nodes || got.best != want[i].best {
			t.Fatalf("%s: the recycled tree has %d nodes and best child %d, a fresh one %d and %d",
				m.name, got.nodes, got.best, want[i].nodes, want[i].best)
		}
		if len(got.visits) != len(want[i].visits) {
			t.Fatalf("%s: the recycled root has %d children that are nodes, a fresh one %d", m.name, len(got.visits), len(want[i].visits))
		}
		for j := range got.visits {
			if got.visits[j] != want[i].visits[j] || got.rewards[j] != want[i].rewards[j] {
				t.Fatalf("%s: root child %d has %d visits and reward %x recycled, %d and %x fresh",
					m.name, j, got.visits[j], got.rewards[j], want[i].visits[j], want[i].rewards[j])
			}
		}
		first := tree.blocks[0]
		a = tree.detach()
		if a.blocks[0] != first || tree.blocks != nil {
			t.Fatalf("%s: detach did not hand over the tree's arena and zero the tree", m.name)
		}
	}
}

// TestReleasedTreePanics: a released tree is the zero Tree, whose number
// directories are nil, so any use panics instead of reading nodes that now
// belong to another tree.
func TestReleasedTreePanics(t *testing.T) {
	tree, err := NewTreeWithCap(narrowGen(t), 0.02, hashEval(0, continuous, new(float64)), rand.New(rand.NewSource(3)), 1<<30)
	if err != nil {
		t.Fatalf("NewTreeWithCap: %v", err)
	}
	for i := 0; i < 100; i++ {
		tree.Sample()
	}
	best := tree.BestChild()
	tree.Release()
	for name, use := range map[string]func(){
		"Sample":    func() { tree.Sample() },
		"BestChild": func() { tree.BestChild() },
		"Advance":   func() { tree.Advance(best) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released tree did not panic", name)
				}
			}()
			use()
		}()
	}
}

// TestDoubleReleasePutsOneArena: a second Release does nothing, so two trees
// built afterwards never share an arena.
func TestDoubleReleasePutsOneArena(t *testing.T) {
	tree := coldTree(t, narrowGen(t), 4, 1<<30)
	tree.Release()
	tree.Release()
	if arenas.Get() == nil || arenas.Get() != nil {
		t.Fatal("two Releases of one tree did not leave its arena in the free list once")
	}
}

// TestReleasedArenaReachesAnotherGoroutine: the arena a tree released on one
// goroutine is the one the next tree built gets on another goroutine, which
// spins on a processor of its own while the first plans and releases. A
// per-processor pool missed these: a Put fills the releasing processor's
// slot, which a Get on another processor cannot take.
func TestReleasedArenaReachesAnotherGoroutine(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	gen := narrowGen(t)
	// plan builds a tree, samples it, releases it and returns the first node
	// block of the arena it was built on, which a recycled arena keeps; a
	// block of its own if the build fails, so the spinning goroutine below
	// stops all the same.
	plan := func() *block {
		tree, err := NewTreeWithCap(gen, 0.02, hashEval(0, continuous, new(float64)), rand.New(rand.NewSource(5)), 1<<30)
		if err != nil {
			t.Error(err)
			return new(block)
		}
		for i := 0; i < 50; i++ {
			tree.Sample()
		}
		b := tree.blocks[0]
		tree.Release()
		return b
	}
	drainArenas()
	for i := 0; i < 100; i++ {
		var released atomic.Pointer[block]
		next := make(chan *block)
		go func() {
			for released.Load() == nil {
			}
			next <- plan()
		}()
		go func() { released.Store(plan()) }()
		if got := <-next; got != released.Load() {
			t.Fatalf("repeat %d: the tree was built on another arena than the one released just before", i)
		}
	}
}

// fineShapes are generators of the explore_fine shapes the planner sees
// most, at least 50 aggregates each: state by month, city by season, city
// by month, month by airline and state by airline, with menus 300 to 480
// refinements wide.
func fineShapes(t testing.TB) []*speech.Generator {
	t.Helper()
	d, err := datagen.Flights(datagen.FlightsConfig{Rows: 20000, Seed: 1})
	if err != nil {
		t.Fatalf("Flights: %v", err)
	}
	var gens []*speech.Generator
	for _, shape := range [][2]string{
		{"start airport/2", "flight date/2"},
		{"start airport/3", "flight date/1"},
		{"start airport/3", "flight date/2"},
		{"flight date/2", "airline/1"},
		{"start airport/2", "airline/1"},
	} {
		q := olap.Query{Fct: olap.Avg, Col: "cancelled", ColDescription: "average cancellation probability"}
		for _, level := range shape {
			name, l, _ := strings.Cut(level, "/")
			q.GroupBy = append(q.GroupBy, olap.GroupBy{Hierarchy: d.HierarchyByName(name), Level: int(l[0] - '0')})
		}
		s, err := olap.NewSpace(d, q)
		if err != nil {
			t.Fatalf("NewSpace: %v", err)
		}
		if s.Size() < 50 {
			t.Fatalf("%v has %d aggregates, want at least 50", shape, s.Size())
		}
		gens = append(gens, speech.NewGenerator(s, speech.DefaultPrefs(), speech.PercentFormat))
	}
	return gens
}

// arenaMemory returns the address of every chunk and directory of a, and
// fails t if a child list, a fan-out chunk's bitsets or a run table's
// slices lie outside the chunks of their slab: memory the arena holds that
// its slabs did not hand out.
func arenaMemory(t *testing.T, a *arena) map[unsafe.Pointer]bool {
	t.Helper()
	m := make(map[unsafe.Pointer]bool)
	add := func(p unsafe.Pointer) {
		if p != nil {
			m[p] = true
		}
	}
	add(unsafe.Pointer(unsafe.SliceData(a.blocks)))
	add(unsafe.Pointer(unsafe.SliceData(a.fans)))
	add(unsafe.Pointer(unsafe.SliceData(a.fanSets)))
	add(unsafe.Pointer(unsafe.SliceData(a.runs)))
	add(unsafe.Pointer(unsafe.SliceData(a.intChunks)))
	add(unsafe.Pointer(unsafe.SliceData(a.kidChunks)))
	add(unsafe.Pointer(unsafe.SliceData(a.wordChunks)))
	for _, b := range a.blocks {
		add(unsafe.Pointer(b))
	}
	for _, r := range a.runs {
		add(unsafe.Pointer(r))
		for _, r := range r {
			if !carved(r.order, a.intChunks) || !carved(r.starts, a.intChunks) {
				t.Fatal("a run table lies outside the run slab")
			}
		}
	}
	for _, f := range a.fans {
		add(unsafe.Pointer(f))
		for _, f := range f {
			if !carved(f.kids, a.kidChunks) {
				t.Fatal("a child list lies outside the child-list slab")
			}
		}
	}
	for _, s := range a.fanSets {
		if !carved(s, a.wordChunks) {
			t.Fatal("a fan-out chunk's bitsets lie outside the word slab")
		}
	}
	for _, c := range a.intChunks {
		add(unsafe.Pointer(unsafe.SliceData(c)))
	}
	for _, c := range a.kidChunks {
		add(unsafe.Pointer(unsafe.SliceData(c)))
	}
	for _, c := range a.wordChunks {
		add(unsafe.Pointer(unsafe.SliceData(c)))
	}
	return m
}

// carved reports whether s, if it has room for anything, lies in one of
// chunks.
func carved[E any](s []E, chunks [][]E) bool {
	if cap(s) == 0 {
		return true
	}
	size := unsafe.Sizeof(s[:1][0])
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	for _, c := range chunks {
		base := uintptr(unsafe.Pointer(unsafe.SliceData(c)))
		if lo >= base && lo+uintptr(cap(s))*size <= base+uintptr(cap(c))*size {
			return true
		}
	}
	return false
}

// TestSecondPassAllocatesNoArena: two goroutines plan the explore_fine shapes
// one after the other, the same tree on both at each step (on generators of
// their own, which build their menus on first use), so both arenas host
// every shape, in whichever order the free list hands them out. A second
// pass plans the same shapes on other seeds, so every tree and every
// fan-out's children differ from the first pass's. It builds no arena, and
// no chunk or directory of either arena is new: whatever the menu's width
// and whichever children a fan-out makes, a tree carves its bitsets and
// child lists from chunks an earlier tree left, where child lists grown slot
// by slot and bitsets sized per fan-out chunk were regrown whenever a tree
// needed more in one place than the arena's earlier trees had.
func TestSecondPassAllocatesNoArena(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	gens := [2][]*speech.Generator{fineShapes(t), fineShapes(t)}
	pass := func(seed int64) {
		for i := range gens[0] {
			var wg sync.WaitGroup
			for g := range gens {
				wg.Add(1)
				go func() {
					defer wg.Done()
					tree, err := NewTreeWithCap(gens[g][i], 0.02, hashEval(0, continuous, new(float64)), rand.New(rand.NewSource(seed+int64(i))), 20000)
					if err != nil {
						t.Error(err)
						return
					}
					for w := 0; w < 2; w++ {
						for s := 0; s < 3000; s++ {
							tree.Sample()
						}
						tree.Advance(tree.BestChild())
					}
					tree.Release()
				}()
			}
			wg.Wait()
		}
	}
	// memory takes both arenas out of the free list, lists their memory and
	// puts them back.
	memory := func() map[unsafe.Pointer]bool {
		a, b := arenas.Get(), arenas.Get()
		if a == nil || b == nil {
			t.Fatal("the free list does not hold the two arenas of the pass")
		}
		m := arenaMemory(t, a)
		for p := range arenaMemory(t, b) {
			m[p] = true
		}
		arenas.Put(b)
		arenas.Put(a)
		return m
	}
	drainArenas()
	pass(0)
	first := memory()
	misses := arenas.Misses()
	pass(100)
	if n := arenas.Misses() - misses; n != 0 {
		t.Fatalf("the second pass built %d arenas", n)
	}
	second := memory()
	for p := range second {
		if !first[p] {
			t.Fatalf("the second pass allocated arena memory: %d chunks and directories after the first pass, %d after the second", len(first), len(second))
		}
	}
}
