package mcts

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/olap"
	"repro/internal/speech"
)

// fineGen is the generator of a fine-grained query, city by month, whose menu
// is as wide as the 48-predicate cap lets one get: 480 refinements below
// every node (the benchmark's explore_fine shapes offer 390 to 480).
func fineGen(t testing.TB) *speech.Generator {
	t.Helper()
	d, err := datagen.Flights(datagen.FlightsConfig{Rows: 20000, Seed: 1})
	if err != nil {
		t.Fatalf("Flights: %v", err)
	}
	q := olap.Query{
		Fct: olap.Avg, Col: "cancelled",
		ColDescription: "average cancellation probability",
		GroupBy: []olap.GroupBy{
			{Hierarchy: d.HierarchyByName("start airport"), Level: 3},
			{Hierarchy: d.HierarchyByName("flight date"), Level: 2},
		},
	}
	s, err := olap.NewSpace(d, q)
	if err != nil {
		t.Fatalf("NewSpace: %v", err)
	}
	return speech.NewGenerator(s, speech.DefaultPrefs(), speech.PercentFormat)
}

// quant says how coarse hashEval's rewards are. Continuous rewards never
// give two children the same UCT score; quarters add up exactly, so children
// with equal counts often have equal means; a constant ties every child of
// every level, and the lowest ordinal has to win each time.
type quant uint8

const (
	continuous quant = iota
	quarters
	constant
)

// hashEval is a stand-in evaluator that needs no data: a reward in [0,1)
// computed from the speech's length and deltas and coarsened by q, stored in
// *last, and no reward on every failEvery-th call (0 for never), which leaves
// the nodes of that descent made but no more visited than before.
func hashEval(failEvery int, q quant, last *float64) EvalFunc {
	calls := 0
	return func(s *speech.Speech) (float64, bool) {
		calls++
		if failEvery > 0 && calls%failEvery == 0 {
			return 0, false
		}
		x := float64(s.MainLen()) * 0.6180339887
		for _, d := range s.Deltas() {
			x += d * 1000
		}
		switch x -= math.Floor(x); q {
		case quarters:
			x = math.Floor(4*x) / 4
		case constant:
			x = 0.5
		}
		*last = x
		return x, true
	}
}

// slotRef mirrors one tree node the way the tree stored it before bitsets:
// a table with one entry per enumerated child in order, nil until a sample
// descends into it.
type slotRef struct {
	visits int64
	reward float64
	slots  []*slotRef
}

// pick is the former descent step, kept as the reference: one scan counts
// the unvisited entries and ranks the visited ones by UCT bound, a second
// finds the k-th unvisited entry.
func (r *slotRef) pick(rng *rand.Rand, uniform bool) int {
	if uniform {
		return rng.Intn(len(r.slots))
	}
	logN := math.Log(float64(r.visits))
	unvisited, best, bestScore := 0, -1, math.Inf(-1)
	for i, c := range r.slots {
		if c == nil || c.visits == 0 {
			unvisited++
			continue
		}
		score := c.reward/float64(c.visits) + math.Sqrt(2*logN/float64(c.visits))
		if score > bestScore {
			bestScore, best = score, i
		}
	}
	if unvisited == 0 {
		return best
	}
	k := rng.Intn(unvisited)
	for i, c := range r.slots {
		if c == nil || c.visits == 0 {
			if k == 0 {
				return i
			}
			k--
		}
	}
	panic("unvisited entry vanished")
}

// checkDescent samples a tree and a slot-table mirror of it from the same
// seed and requires the same child at every level of every descent,
// identical statistics on every node afterwards, and a node count equal to
// what the generator's public filter enumerates. It commits to the best
// child commits times at equal distances, as the planner does between
// sentences; every seventh evaluation fails, so the child a saturated level
// took last is sometimes one whose count did not move. Rewards are as coarse
// as q says.
func checkDescent(t testing.TB, gen *speech.Generator, nodeCap, samples, commits int, seed int64, uniform bool, q quant) {
	t.Helper()
	var last float64
	tree, err := NewTreeWithCap(gen, 0.02, hashEval(7, q, &last), rand.New(rand.NewSource(seed)), nodeCap)
	if err != nil {
		t.Fatalf("NewTreeWithCap: %v", err)
	}
	tree.UniformPolicy = uniform
	rng := rand.New(rand.NewSource(seed))
	top := &slotRef{}
	root := top
	index := func(c *Node) int { return rank(tree.valid(tree.node(c.parent).fan), int(c.ord)) }
	var refPath []*slotRef
	window := samples/(commits+1) + 1
	for s := 0; s < samples; s++ {
		if s > 0 && s%window == 0 {
			if best := tree.BestChild(); best != nil && best.Visits > 0 {
				tree.Advance(best)
				root = root.slots[index(best)]
			}
		}
		ok := tree.Sample()
		r := root
		refPath = append(refPath[:0], r)
		for lvl, n := range tree.pathScratch[:len(tree.pathScratch)-1] {
			if r.slots == nil {
				r.slots = make([]*slotRef, tree.NumChildren(n))
			}
			i := r.pick(rng, uniform)
			if want := index(tree.pathScratch[lvl+1]); i != want {
				t.Fatalf("sample %d level %d: the tree descended into child %d, the slot scan into %d", s, lvl, want, i)
			}
			if r.slots[i] == nil {
				r.slots[i] = &slotRef{}
			}
			r = r.slots[i]
			refPath = append(refPath, r)
		}
		if ok {
			for _, p := range refPath {
				p.visits++
				p.reward += last
			}
		}
		// The runs along the path, after every sample of a short run and a
		// sample in 61 of a long one (a failed evaluation comes round every 7).
		if samples <= 2000 || s%61 == 0 {
			for _, n := range tree.pathScratch {
				checkRuns(t, tree, n)
			}
		}
	}

	// A fan-out above the root is no longer descended through, so its runs
	// are as the last commit left them and the committed child has moved on.
	var compare func(n *Node, r *slotRef, live bool)
	compare = func(n *Node, r *slotRef, live bool) {
		live = live || n == tree.Root()
		if int64(n.Visits) != r.visits || math.Float64bits(n.Reward) != math.Float64bits(r.reward) {
			t.Fatalf("%q: visits %d reward %x, the slot scan has %d and %x", tree.Speech(n).MainText(),
				n.Visits, math.Float64bits(n.Reward), r.visits, math.Float64bits(r.reward))
		}
		mean := 0.0
		if n.Visits > 0 {
			mean = n.Reward / float64(n.Visits)
		}
		if math.Float64bits(n.mean) != math.Float64bits(mean) {
			t.Fatalf("%q: cached mean %x, reward over visits is %x", tree.Speech(n).MainText(),
				math.Float64bits(n.mean), math.Float64bits(mean))
		}
		if live {
			checkRuns(t, tree, n)
		}
		if uniform && runsOf(tree, n) != nil {
			t.Fatalf("%q: a uniform tree built runs", tree.Speech(n).MainText())
		}
		for i := 0; i < tree.NumChildren(n); i++ {
			c := tree.Child(n, i)
			switch {
			case r.slots != nil && r.slots[i] != nil:
				if c == nil {
					t.Fatalf("%q: child %d was descended into and is not a node", tree.Speech(n).MainText(), i)
				}
				compare(c, r.slots[i], live)
			case c != nil && (c.Visits != 0 || c.Reward != 0):
				t.Fatalf("%q: child %d has statistics and was never descended into", tree.Speech(n).MainText(), i)
			}
		}
	}
	first := tree.Root()
	for first.parent != 0 {
		first = tree.node(first.parent)
	}
	compare(first, top, false)
	if got, want := tree.NodeCount(), enumerate(t, tree, gen); got != want {
		t.Fatalf("NodeCount is %d, the generator enumerates %d", got, want)
	}
}

// enumerate walks every expanded node of the tree, checks that its children
// are exactly the extensions the generator's public (copying) filter and
// Speech.Valid allow, in order, and returns what NodeCount should be: the
// root plus every child listed.
func enumerate(t testing.TB, tree *Tree, gen *speech.Generator) int {
	t.Helper()
	root := tree.Root()
	for root.parent != 0 {
		root = tree.node(root.parent)
	}
	count := 1
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.fan == 0 {
			return
		}
		sp := tree.Speech(n)
		want := 0
		if n == root {
			for _, b := range tree.baselines {
				if (&speech.Speech{Baseline: b}).Valid(gen.Prefs) {
					want++
				}
			}
		} else if mf := gen.Prefs.MaxFragments; mf <= 0 || len(sp.Refinements) < mf {
			for _, r := range gen.Refinements(sp.Refinements) {
				ext := &speech.Speech{Baseline: sp.Baseline, Refinements: append(sp.Refinements[:len(sp.Refinements):len(sp.Refinements)], r)}
				if !ext.Valid(gen.Prefs) {
					continue
				}
				if want < tree.NumChildren(n) && tree.menu[selectBit(tree.valid(n.fan), want)] != r {
					t.Fatalf("%q: child %d is not %q", sp.MainText(), want, r.Text())
				}
				want++
			}
		}
		if got := tree.NumChildren(n); got != want {
			t.Fatalf("%q lists %d children, the generator allows %d", sp.MainText(), got, want)
		}
		count += want
		tree.Kids(n, walk)
	}
	walk(root)
	return count
}

// smallGen draws a generator over a random small space, the way
// TestLazyChildrenMatchEager does, from the given choices.
func smallGen(t testing.TB, dataSeed int64, airportLevel, dateLevel, maxChars, maxFragments, percents, maxPreds int, disjoint bool) *speech.Generator {
	t.Helper()
	d, err := datagen.Flights(datagen.FlightsConfig{Rows: 500, Seed: dataSeed})
	if err != nil {
		t.Fatalf("Flights: %v", err)
	}
	q := olap.Query{Fct: olap.Avg, Col: "cancelled", ColDescription: "average cancellation probability"}
	q.GroupBy = append(q.GroupBy, olap.GroupBy{Hierarchy: d.HierarchyByName("start airport"), Level: 1 + airportLevel%2})
	if dateLevel%3 > 0 {
		q.GroupBy = append(q.GroupBy, olap.GroupBy{Hierarchy: d.HierarchyByName("flight date"), Level: dateLevel % 3})
	}
	space, err := olap.NewSpace(d, q)
	if err != nil {
		t.Fatalf("NewSpace: %v", err)
	}
	prefs := speech.DefaultPrefs()
	prefs.MaxFragments = 1 + maxFragments%3
	prefs.MaxChars = 100 + maxChars%250
	gen := speech.NewGenerator(space, prefs, speech.PercentFormat)
	gen.Percents = [][]int{{50}, {20, 100}, {5, 50, 200}}[percents%3]
	gen.MaxPredicates = 4 + maxPreds%8
	gen.DisjointScopes = disjoint
	return gen
}

// TestDescentMatchesSlotScan holds the descent to the slot scan it replaced,
// which scores every child of a saturated level where the tree scores a head
// per run of equal visit count: on random small spaces and on the 480-wide
// city-by-month menu, samples from a shared seed choose the same child at
// every level and leave bit-identical statistics.
func TestDescentMatchesSlotScan(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 12; trial++ {
		gen := smallGen(t, 5, rng.Intn(2), rng.Intn(3), rng.Intn(250), rng.Intn(3), rng.Intn(3), rng.Intn(8), rng.Intn(3) == 0)
		nodeCap := []int{1, 40, 1 << 30}[trial%3]
		checkDescent(t, gen, nodeCap, 10000, 1, int64(trial), trial%4 == 3, continuous)
	}
	// Eight refinements by region and 60 000 samples: every level is
	// saturated almost from the start and the counts run into the thousands,
	// each child in a run of its own. With two commits the root advances
	// twice into a child whose fan-out has been saturated for a long time.
	narrow := narrowGen(t)
	checkDescent(t, narrow, 1<<30, 60000, 1, 3, false, continuous)
	checkDescent(t, narrow, 1<<30, 60000, 2, 4, false, continuous)
	if testing.Short() {
		return
	}
	checkDescent(t, fineGen(t), 100000, 10000, 1, 1, false, continuous)
	// Three windows, as in an answer: after the second commit a second
	// 480-wide level is saturated too.
	checkDescent(t, fineGen(t), 100000, 40000, 2, 2, false, continuous)
}

// narrowGen is the generator of a menu of at most eight refinements, by
// region, two fragments deep.
func narrowGen(t testing.TB) *speech.Generator {
	t.Helper()
	narrow := smallGen(t, 5, 0, 0, 200, 1, 0, 0, false)
	if m := len(narrow.Refinements(nil)); m > 8 {
		t.Fatalf("the narrow menu has %d refinements, want at most 8", m)
	}
	return narrow
}

// TestDescentTiesTakeLowestOrdinal is TestDescentMatchesSlotScan with
// rewards that tie. The slot scan keeps the first maximum it meets in
// ordinal order; the tree has to find that child among the equal scores at
// the head of one run (quarters: equal counts, equal sums) and across runs
// (a constant reward: every child of every level scores the same whenever
// the counts are level, and the scan is the O(m) it was).
func TestDescentTiesTakeLowestOrdinal(t *testing.T) {
	tiesAcrossRuns(t)
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 8; trial++ {
		gen := smallGen(t, 5, rng.Intn(2), rng.Intn(3), rng.Intn(250), rng.Intn(3), rng.Intn(3), rng.Intn(8), rng.Intn(3) == 0)
		nodeCap := []int{1, 40, 1 << 30}[trial%3]
		checkDescent(t, gen, nodeCap, 10000, 1, int64(trial), false, []quant{quarters, constant}[trial%2])
	}
	narrow := narrowGen(t)
	checkDescent(t, narrow, 1<<30, 20000, 2, 5, false, quarters)
	checkDescent(t, narrow, 1<<30, 20000, 2, 6, false, constant)
	if testing.Short() {
		return
	}
	checkDescent(t, fineGen(t), 100000, 40000, 2, 2, false, quarters)
	checkDescent(t, fineGen(t), 100000, 40000, 2, 2, false, constant)
}

// tiesAcrossRuns gives one fan-out what sampling does not produce: children
// of different visit counts whose scores are equal to the bit. For every
// subset of the children as the tied winners, the rest a tenth below, the
// tree must take the subset's lowest ordinal, as a scan of all children does.
func tiesAcrossRuns(t *testing.T) {
	tree, err := NewTreeWithCap(narrowGen(t), 0.02, hashEval(0, continuous, new(float64)), rand.New(rand.NewSource(1)), 1<<30)
	if err != nil {
		t.Fatalf("NewTreeWithCap: %v", err)
	}
	n := childAt(tree, tree.Root(), 0)
	m := tree.NumChildren(n)
	if m < 4 {
		t.Fatalf("the first baseline has %d children, want at least 4", m)
	}
	kids := make([]*Node, m)
	for k := range kids {
		kids[k] = childAt(tree, n, k)
		kids[k].Visits = []int32{3, 1, 2}[k%3]
		put(tree.seen(n.fan), int(kids[k].ord))
		n.Visits += kids[k].Visits
	}
	twoLogN := 2 * math.Log(float64(n.Visits))
	const top = 1.75
	for winners := 1; winners < 1<<m; winners++ {
		for k, c := range kids {
			term := math.Sqrt(twoLogN / float64(c.Visits))
			c.mean = top - term
			for c.mean+term != top { // the difference may be an ulp off
				c.mean = math.Nextafter(c.mean, c.mean+top-(c.mean+term))
			}
			if winners&(1<<k) == 0 {
				c.mean -= 0.1
			}
		}
		want, wantScore := -1, math.Inf(-1)
		for k, c := range kids {
			if score := c.mean + math.Sqrt(twoLogN/float64(c.Visits)); score > wantScore {
				want, wantScore = k, score
			}
		}
		if wantScore != top || winners&(1<<want) == 0 || winners&(1<<want-1) != 0 {
			t.Fatalf("winners %b: the scan takes child %d at %v, the case is not the tie it was built to be", winners, want, wantScore)
		}
		tree.fanout(n.fan).runs = 0
		if _, got, _ := tree.maxUCTChild(n, idOf(tree, n)); got != kids[want] {
			t.Fatalf("winners %b: the tree took ordinal %d, the scan child %d with ordinal %d", winners, got.ord, want, kids[want].ord)
		}
		checkRuns(t, tree, n)
	}
}

// TestUniformPolicyBuildsNoRuns: the ablation's uniform descent never ranks
// children, so it orders none and allocates nothing to order them in, however
// long every level has been saturated.
func TestUniformPolicyBuildsNoRuns(t *testing.T) {
	tree, err := NewTreeWithCap(narrowGen(t), 0.02, hashEval(0, continuous, new(float64)), rand.New(rand.NewSource(8)), 1<<30)
	if err != nil {
		t.Fatalf("NewTreeWithCap: %v", err)
	}
	tree.UniformPolicy = true
	for i := 0; i < 5000; i++ {
		tree.Sample()
	}
	saturated := 0
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.fan <= 0 {
			return
		}
		if popcount(tree.seen(n.fan)) == tree.NumChildren(n) {
			saturated++
		}
		if runsOf(tree, n) != nil {
			t.Fatalf("%q has runs", tree.Speech(n).MainText())
		}
		tree.Kids(n, walk)
	}
	walk(tree.Root())
	if saturated < 10 {
		t.Fatalf("%d fan-outs have every child visited: the run exercised nothing", saturated)
	}
	if tree.nextRuns != 1 || tree.nextInts != 0 {
		t.Fatalf("a uniform tree took run storage: %d run tables and %d chunks of int32s", tree.nextRuns-1, tree.nextInts)
	}
}

// FuzzDescentMatchesReference is TestDescentMatchesSlotScan on inputs
// nobody chose: whatever the space, the limits, the node cap, the number of
// samples and the coarseness of the rewards, the tree never panics, descends
// like the slot scan and counts the nodes the generator enumerates.
func FuzzDescentMatchesReference(f *testing.F) {
	f.Add(int64(5), uint8(0), uint8(1), uint16(200), uint8(1), uint8(1), uint8(3), false, uint16(40), uint16(600), false, uint8(0))
	f.Add(int64(9), uint8(1), uint8(2), uint16(20), uint8(2), uint8(2), uint8(7), true, uint16(0), uint16(900), false, uint8(0))
	f.Add(int64(2), uint8(1), uint8(0), uint16(249), uint8(0), uint8(0), uint8(0), false, uint16(5000), uint16(300), true, uint8(0))
	// The narrow menu at the sample cap: saturated levels with counts in the hundreds.
	f.Add(int64(5), uint8(0), uint8(0), uint16(200), uint8(1), uint8(0), uint8(0), false, uint16(65535), uint16(1999), false, uint8(0))
	// The same with rewards in quarters: runs of several children whose heads tie.
	f.Add(int64(5), uint8(0), uint8(0), uint16(200), uint8(1), uint8(0), uint8(0), false, uint16(65535), uint16(1999), false, uint8(1))
	f.Fuzz(func(t *testing.T, dataSeed int64, airportLevel, dateLevel uint8, maxChars uint16, maxFragments, percents, maxPreds uint8,
		disjoint bool, nodeCap, samples uint16, uniform bool, q uint8) {
		gen := smallGen(t, dataSeed, int(airportLevel), int(dateLevel), int(maxChars), int(maxFragments), int(percents), int(maxPreds), disjoint)
		checkDescent(t, gen, 1+int(nodeCap), int(samples)%2000, 1, dataSeed, uniform, quant(q%3))
	})
}

// TestScratchSpeechDoesNotAlias guards the one speech every leaf is
// evaluated through: its deltas always describe the leaf at hand (two
// different leaves back to back, one leaf twice), and a speech handed out by
// Tree.Speech is never that scratch, so later samples cannot rewrite it.
func TestScratchSpeechDoesNotAlias(t *testing.T) {
	e := newEnv(t)
	e.gen.Percents = []int{50} // under 2 000 leaves, so 6 000 samples come back to some
	seen := make(map[string][]float64)
	repeats, leaves := 0, 0
	eval := func(s *speech.Speech) (float64, bool) {
		got := append([]float64(nil), s.Deltas()...)
		fresh := &speech.Speech{Baseline: s.Baseline, Refinements: append([]*speech.Refinement(nil), s.Refinements...)}
		want := fresh.Deltas()
		text := s.MainText()
		if len(got) != len(want) {
			t.Fatalf("%q: %d deltas through the scratch, %d computed afresh", text, len(got), len(want))
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%q: delta %d is %v through the scratch, %v computed afresh", text, i, got[i], want[i])
			}
		}
		if old, ok := seen[text]; ok {
			repeats++
			for i := range old {
				if math.Float64bits(old[i]) != math.Float64bits(got[i]) {
					t.Fatalf("%q: delta %d changed between two evaluations", text, i)
				}
			}
		} else {
			leaves++
		}
		seen[text] = got
		return e.model.Quality(fresh, e.result), true
	}
	tree, err := NewTree(e.gen, e.result.GrandValue(), eval, rand.New(rand.NewSource(31)))
	if err != nil {
		t.Fatalf("NewTree: %v", err)
	}
	for i := 0; i < 6000; i++ {
		tree.Sample()
	}
	if leaves < 2 || repeats == 0 {
		t.Fatalf("%d distinct leaves and %d repeats: the run exercised nothing", leaves, repeats)
	}
	best := tree.BestChild()
	tree.Advance(best)
	committed := tree.Speech(best)
	if committed == &tree.scratch {
		t.Fatal("Tree.Speech returned the scratch speech")
	}
	text, deltas := committed.Text(), append([]float64(nil), committed.Deltas()...)
	kid := tree.Speech(tree.BestChild())
	kidText := kid.Text()
	for i := 0; i < 2000; i++ {
		tree.Sample()
	}
	if committed.Text() != text || kid.Text() != kidText {
		t.Fatalf("a handed-out speech changed under later samples: %q, %q", committed.Text(), kid.Text())
	}
	for i, d := range committed.Deltas() {
		if math.Float64bits(d) != math.Float64bits(deltas[i]) {
			t.Fatalf("delta %d of a handed-out speech changed under later samples", i)
		}
	}
}

// TestBestChildWithNoVisitedChild pins the fallback: when no child of the
// root has a visit (every evaluation so far declined to score), BestChild
// returns the first child, made into a node.
func TestBestChildWithNoVisitedChild(t *testing.T) {
	e := newEnv(t)
	never := func(*speech.Speech) (float64, bool) { return 0, false }
	for _, nodeCap := range []int{1, DefaultMaxNodes} {
		tree, err := NewTreeWithCap(e.gen, e.result.GrandValue(), never, rand.New(rand.NewSource(12)), nodeCap)
		if err != nil {
			t.Fatalf("NewTreeWithCap: %v", err)
		}
		for i := 0; i < 50; i++ {
			if tree.Sample() {
				t.Fatal("an evaluator that never scores produced a sample")
			}
		}
		best := tree.BestChild()
		if best == nil || best != tree.Child(tree.Root(), 0) {
			t.Fatalf("cap %d: BestChild = %p, want the first child %p", nodeCap, best, tree.Child(tree.Root(), 0))
		}
		if best.Visits != 0 || tree.Speech(best).Baseline != tree.baselines[0] {
			t.Errorf("cap %d: the fallback child has %d visits and baseline %v", nodeCap, best.Visits, tree.Speech(best).Baseline)
		}
		tree.Advance(best) // and the planner can commit to it
	}
}
