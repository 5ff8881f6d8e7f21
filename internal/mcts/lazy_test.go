package mcts

import (
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/datagen"
	"repro/internal/dimension"
	"repro/internal/olap"
	"repro/internal/speech"
)

// TestNodeSize pins what a child costs: three bits while it is only
// enumerated, at most 32 bytes once a sample has made it a node, and under
// 289 bytes for the table of a 470-child expansion, whose record is at most
// 32 bytes: 1.25x the 231 measured with numbered fan-outs (256 with a 56-byte
// record and a bound of 400). The tree is cold, its chunks all new: on a
// recycled arena the expansions would allocate nothing and prove nothing.
func TestNodeSize(t *testing.T) {
	if sz := unsafe.Sizeof(Node{}); sz > 32 {
		t.Errorf("Node is %d bytes, want <= 32", sz)
	}
	if sz := unsafe.Sizeof(fanout{}); sz > 32 {
		t.Errorf("a fan-out record is %d bytes, want <= 32", sz)
	}
	gen := fineGen(t)
	drainArenas()
	tree, err := NewTreeWithCap(gen, 0.02, hashEval(0, continuous, new(float64)), rand.New(rand.NewSource(1)), 1)
	if err != nil {
		t.Fatalf("NewTreeWithCap: %v", err)
	}
	base := childAt(tree, tree.Root(), 0)
	tree.expand(base)
	tree.expand(childAt(tree, base, 0)) // allocates the tree's compatibility rows
	// Fan-outs come in chunks, so the cost of one is the mean over whole
	// chunks, from the first number of a new one on; the nodes are made
	// first, outside the measurement.
	nodes := make([]*Node, 2*fanChunk)
	for i := range nodes {
		nodes[i] = childAt(tree, base, 1+i)
	}
	tree.nextFan = int32(len(tree.fans)) << fanShift
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, n := range nodes {
		tree.expand(n)
	}
	runtime.ReadMemStats(&after)
	n := nodes[0]
	kids := tree.NumChildren(n)
	if kids < 450 {
		t.Fatalf("a first refinement of city x month has %d children, want the 480-wide menu less one scope", kids)
	}
	got := (after.TotalAlloc - before.TotalAlloc) / uint64(len(nodes))
	t.Logf("expanding a %d-child node allocated %d bytes", kids, got)
	if got > 289 {
		t.Errorf("expanding a %d-child node allocated %d bytes, want <= 289", kids, got)
	}
	if bits, menu := 64*len(tree.sets(n.fan)), 64*tree.menuWords; bits > 3*menu {
		t.Errorf("%d bits for a menu of %d (rounded to words): an enumerated child costs more than 3", bits, menu)
	}
}

// TestLazyChildrenMatchEager is the property behind materialise-on-visit:
// on random small spaces, the children a tree lists as bits are, in order,
// exactly the nodes a fully materialised tree holds, which are exactly the
// valid extensions the generator's public (copying) filter produces. An
// eagerly built tree and one that expands only on first visit agree on
// every node and on NodeCount.
func TestLazyChildrenMatchEager(t *testing.T) {
	d, err := datagen.Flights(datagen.FlightsConfig{Rows: 2000, Seed: 5})
	if err != nil {
		t.Fatalf("Flights: %v", err)
	}
	airport, date := d.HierarchyByName("start airport"), d.HierarchyByName("flight date")
	rng := rand.New(rand.NewSource(99))
	never := func(*speech.Speech) (float64, bool) { return 0, false }
	for trial := 0; trial < 40; trial++ {
		q := olap.Query{Fct: olap.Avg, Col: "cancelled", ColDescription: "average cancellation probability"}
		q.GroupBy = append(q.GroupBy, olap.GroupBy{Hierarchy: airport, Level: 1 + rng.Intn(2)})
		if rng.Intn(2) == 0 {
			q.GroupBy = append(q.GroupBy, olap.GroupBy{Hierarchy: date, Level: 1 + rng.Intn(2)})
		}
		if rng.Intn(3) == 0 {
			q.Filters = []*dimension.Member{airport.FindMember("the South")}
		}
		space, err := olap.NewSpace(d, q)
		if err != nil {
			t.Fatalf("trial %d: NewSpace: %v", trial, err)
		}
		prefs := speech.DefaultPrefs()
		prefs.MaxFragments = 1 + rng.Intn(3)
		prefs.MaxChars = 120 + rng.Intn(200)
		gen := speech.NewGenerator(space, prefs, speech.PercentFormat)
		gen.Percents = [][]int{{50}, {20, 100}, {5, 50, 200}}[rng.Intn(3)]
		gen.MaxPredicates = 4 + rng.Intn(8)
		gen.DisjointScopes = rng.Intn(3) == 0

		eager, err := NewTreeWithCap(gen, 0.02, never, rng, 1<<30)
		if err != nil {
			t.Fatalf("trial %d: eager tree: %v", trial, err)
		}
		lazy, err := NewTreeWithCap(gen, 0.02, never, rng, 1)
		if err != nil {
			t.Fatalf("trial %d: lazy tree: %v", trial, err)
		}
		if lazy.NodeCount() != 1+lazy.NumChildren(lazy.Root()) {
			t.Fatalf("trial %d: a cap of 1 should enumerate the baselines only, got %d nodes", trial, lazy.NodeCount())
		}

		nodes := 1
		var walk func(a, b *Node)
		walk = func(a, b *Node) {
			if b.fan == 0 { // what the first sample through b does
				lazy.expand(b)
			}
			sp := lazy.Speech(b)
			var want []*speech.Refinement
			if b != lazy.Root() {
				for _, r := range gen.Refinements(sp.Refinements) {
					ext := &speech.Speech{Baseline: sp.Baseline, Refinements: append(sp.Refinements[:len(sp.Refinements):len(sp.Refinements)], r)}
					if ext.Valid(prefs) {
						want = append(want, r)
					}
				}
				if lazy.NumChildren(b) != len(want) {
					t.Fatalf("trial %d: %q lists %d children, the generator allows %d",
						trial, sp.MainText(), lazy.NumChildren(b), len(want))
				}
			}
			if eager.NumChildren(a) != lazy.NumChildren(b) {
				t.Fatalf("trial %d: %q has %d children eagerly, %d lazily",
					trial, sp.MainText(), eager.NumChildren(a), lazy.NumChildren(b))
			}
			nodes += lazy.NumChildren(b)
			for i := 0; i < lazy.NumChildren(b); i++ {
				if lazy.Child(b, i) != nil {
					t.Fatalf("trial %d: child %d of %q is a node before any descent", trial, i, sp.MainText())
				}
				ca, cb := childAt(eager, a, i), childAt(lazy, b, i)
				if lazy.Child(b, i) != cb || lazy.node(cb.parent) != b {
					t.Fatalf("trial %d: child %d of %q is not linked to its parent", trial, i, sp.MainText())
				}
				if b == lazy.Root() {
					if lazy.Speech(cb).Baseline != lazy.baselines[cb.ord] || eager.Speech(ca).Baseline.Value != lazy.Speech(cb).Baseline.Value {
						t.Fatalf("trial %d: baseline %d differs", trial, i)
					}
				} else if ref := lazy.Refinement(cb); ref != want[i] || eager.Refinement(ca) != ref {
					t.Fatalf("trial %d: child %d of %q is %q, want %q (eager %q)",
						trial, i, sp.MainText(), ref.Text(), want[i].Text(), eager.Refinement(ca).Text())
				}
				if ca.depth != cb.depth || int(cb.depth) != len(lazy.Speech(cb).Refinements) {
					t.Fatalf("trial %d: child %d of %q carries the wrong depth", trial, i, sp.MainText())
				}
				walk(ca, cb)
			}
		}
		walk(eager.Root(), lazy.Root())
		if eager.NodeCount() != nodes || lazy.NodeCount() != nodes {
			t.Fatalf("trial %d: %d nodes walked, eager counts %d, lazy %d",
				trial, nodes, eager.NodeCount(), lazy.NodeCount())
		}
	}
}
