package mcts

import (
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/datagen"
	"repro/internal/dimension"
	"repro/internal/olap"
	"repro/internal/speech"
)

// TestNodeSize pins what a child costs: four bytes while it is only
// enumerated, and at most 96 once a sample has made it a node.
func TestNodeSize(t *testing.T) {
	if sz := unsafe.Sizeof(slot{}); sz > 12 {
		t.Errorf("an unvisited child costs %d bytes, want <= 12", sz)
	}
	if sz := unsafe.Sizeof(Node{}); sz > 96 {
		t.Errorf("Node is %d bytes, want <= 96", sz)
	}
}

// TestLazyChildrenMatchEager is the property behind materialise-on-visit:
// on random small spaces, the children a tree lists as slots are, in order,
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
			lazy.expand(b) // what the first sample through b does
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
				ord := b.slots[i].v.Load()
				ca, cb := eager.child(a, i), lazy.child(b, i)
				if lazy.Child(b, i) != cb || cb.Parent != b {
					t.Fatalf("trial %d: child %d of %q is not linked to its slot", trial, i, sp.MainText())
				}
				if b == lazy.Root() {
					if cb.baseline != lazy.baselines[ord] || ca.baseline.Value != cb.baseline.Value {
						t.Fatalf("trial %d: baseline %d differs", trial, i)
					}
				} else if cb.ref != lazy.menu[ord] || cb.ref != want[i] || ca.ref != cb.ref {
					t.Fatalf("trial %d: child %d of %q is %q, want %q (eager %q)",
						trial, i, sp.MainText(), cb.ref.Text(), want[i].Text(), ca.ref.Text())
				}
				if ca.depth != cb.depth || ca.mainLen != cb.mainLen || int(cb.mainLen) != lazy.Speech(cb).MainLen() {
					t.Fatalf("trial %d: child %d of %q carries the wrong running state", trial, i, sp.MainText())
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
