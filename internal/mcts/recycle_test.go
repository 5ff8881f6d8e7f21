package mcts

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

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

// drainArenas empties the pool of released arenas: a collection moves what
// the pool holds to its victim cache, and a second drops it.
func drainArenas() {
	runtime.GC()
	runtime.GC()
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
// from tree to tree, so a recycled bitset slab or compatibility matrix is too
// small for the next menu as often as it is too large, and the fine menu
// comes back last, on chunks a narrower tree zeroed and used.
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
	drainArenas()
	tree, err := NewTreeWithCap(narrowGen(t), 0.02, hashEval(0, continuous, new(float64)), rand.New(rand.NewSource(4)), 1<<30)
	if err != nil {
		t.Fatalf("NewTreeWithCap: %v", err)
	}
	tree.Release()
	tree.Release()
	a, _ := arenas.Get().(*arena)
	b, _ := arenas.Get().(*arena)
	if a != nil && a == b {
		t.Fatal("two Releases of one tree put its arena in the pool twice")
	}
}
