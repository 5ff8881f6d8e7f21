package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/dimension"
	"repro/internal/freelist"
	"repro/internal/olap"
	"repro/internal/speech"
	"repro/internal/voice"
)

var update = flag.Bool("update", false, "rewrite testdata/holistic_golden.json from the current planner")

// daemonTestConfig is the planner configuration cmd/voiceolapd ships (and
// the benchmark copies): full percent menu, simulated clock, 2000 rounds
// per sentence, a 100 000-node eager cap.
func daemonTestConfig(seed int64) Config {
	return Config{
		Format:               speech.PercentFormat,
		Seed:                 seed,
		Clock:                voice.NewSimClock(),
		SimRoundCost:         time.Millisecond,
		MaxRoundsPerSentence: 2000,
		MaxTreeNodes:         100000,
	}
}

// goldenRows sizes the flights table shared by the golden and allocation
// tests. Daemon budgets read all of it, so RowsRead pins the scan too.
const goldenRows = 200000

var goldenFlights = sync.OnceValues(func() (*olap.Dataset, error) {
	return datagen.Flights(datagen.FlightsConfig{Rows: goldenRows, Seed: 1})
})

// goldenQuery builds a cancellation-probability query over the flights
// dimensions: airport and date are group-by levels in their hierarchies
// (0 leaves the dimension out), airline toggles the third dimension, and
// filter names one member to restrict to ("" for none).
func goldenQuery(t testing.TB, d *olap.Dataset, airport, date int, airline bool, filter string) olap.Query {
	t.Helper()
	q := olap.Query{Fct: olap.Avg, Col: "cancelled", ColDescription: "average cancellation probability"}
	add := func(name string, level int) {
		if level > 0 {
			q.GroupBy = append(q.GroupBy, olap.GroupBy{Hierarchy: d.HierarchyByName(name), Level: level})
		}
	}
	add("start airport", airport)
	add("flight date", date)
	if airline {
		add("airline", 1)
	}
	if filter != "" {
		var m *dimension.Member
		for _, h := range d.Hierarchies() {
			if m = h.FindMember(filter); m != nil {
				break
			}
		}
		if m == nil {
			t.Fatalf("no member %q", filter)
		}
		q.Filters = []*dimension.Member{m}
	}
	return q
}

// goldenSentence is one committed root child.
type goldenSentence struct {
	Sentence string `json:"sentence"`
	Visits   int64  `json:"visits"`
	// RewardBits is Float64bits of the child's mean reward at commit, in
	// hex: the form Trace exposes, and as sensitive to a changed backup
	// order as the reward sum itself.
	RewardBits string `json:"rewardBits"`
	RunnerUp   string `json:"runnerUp,omitempty"`
}

// goldenAnswer is everything one Holistic run is pinned on.
type goldenAnswer struct {
	Query       string           `json:"query"`
	Seed        int64            `json:"seed"`
	Text        string           `json:"text"`
	TreeSamples int64            `json:"treeSamples"`
	RowsRead    int64            `json:"rowsRead"`
	TreeNodes   int              `json:"treeNodes"`
	Sentences   []goldenSentence `json:"sentences"`
}

// goldenQueries are the query shapes the golden file pins.
var goldenQueries = []struct {
	name          string
	airport, date int
	airline       bool
	filter        string
}{
	{"region", 1, 0, false, ""},
	{"region x season", 1, 1, false, ""},
	{"state", 2, 0, false, ""},
	{"state x month", 2, 2, false, ""},
	{"city x month", 3, 2, false, ""},
	{"month x airline", 0, 2, true, ""},
	{"state x season in the South", 2, 1, false, "the South"},
	{"state x month in Winter", 2, 2, false, "Winter"},
}

// goldenSeeds is how many seeds of each golden query a run replays: three,
// or one under -short (CI runs the golden tests under the race detector,
// which slows the single-threaded planner forty-fold).
func goldenSeeds() int64 {
	if testing.Short() && !*update {
		return 1
	}
	return 3
}

// answerGolden plans golden query i at seed and returns what the golden file
// pins of it. It reports failures with Errorf, so other goroutines may call it.
func answerGolden(t *testing.T, d *olap.Dataset, i int, seed int64) goldenAnswer {
	qc := goldenQueries[i]
	q := goldenQuery(t, d, qc.airport, qc.date, qc.airline, qc.filter)
	cfg := daemonTestConfig(seed)
	cfg.Trace = &Trace{}
	out, err := NewHolistic(d, q, cfg).Vocalize()
	if err != nil {
		t.Errorf("%s seed %d: %v", qc.name, seed, err)
		return goldenAnswer{}
	}
	a := goldenAnswer{
		Query: qc.name, Seed: seed, Text: out.Text(),
		TreeSamples: out.TreeSamples, RowsRead: out.RowsRead,
		TreeNodes: cfg.Trace.TreeNodes,
	}
	for _, s := range cfg.Trace.Sentences {
		a.Sentences = append(a.Sentences, goldenSentence{
			Sentence:   s.Sentence,
			Visits:     s.BestVisits,
			RewardBits: fmt.Sprintf("%016x", math.Float64bits(s.BestMeanReward)),
			RunnerUp:   s.RunnerUp,
		})
	}
	return a
}

// goldenKey names one pinned answer.
type goldenKey struct {
	query string
	seed  int64
}

// pinnedGolden reads the golden file.
func pinnedGolden(t *testing.T) map[goldenKey]goldenAnswer {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("testdata", "holistic_golden.json"))
	if err != nil {
		t.Fatalf("read golden (generate with -update): %v", err)
	}
	var want []goldenAnswer
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("decode golden: %v", err)
	}
	if len(want) != 3*len(goldenQueries) {
		t.Fatalf("golden has %d answers, want %d", len(want), 3*len(goldenQueries))
	}
	pinned := make(map[goldenKey]goldenAnswer, len(want))
	for _, w := range want {
		pinned[goldenKey{w.Query, w.Seed}] = w
	}
	return pinned
}

// checkGolden fails t for every answer of got that is not the pinned one.
func checkGolden(t *testing.T, pinned map[goldenKey]goldenAnswer, got []goldenAnswer) {
	t.Helper()
	for _, g := range got {
		if w, ok := pinned[goldenKey{g.Query, g.Seed}]; !ok || !reflect.DeepEqual(g, w) {
			t.Errorf("%s seed %d diverged from the golden:\n got %+v\nwant %+v", g.Query, g.Seed, g, w)
		}
	}
}

// TestHolisticGolden pins the daemon-budget planner bit for bit on eight
// query shapes and three seeds: spoken text, sample and row counts, the
// enumerated tree size, and every committed child's statistics. The tree
// representation may change underneath; none of this may. Regenerate with
// `go test ./internal/core -run TestHolisticGolden -update` only when a
// behaviour change is intended. With -short only seed 1 of each query is
// replayed.
func TestHolisticGolden(t *testing.T) {
	d, err := goldenFlights()
	if err != nil {
		t.Fatalf("Flights: %v", err)
	}
	var got []goldenAnswer
	for i := range goldenQueries {
		for seed := int64(1); seed <= goldenSeeds(); seed++ {
			got = append(got, answerGolden(t, d, i, seed))
		}
	}
	if *update {
		buf, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join("testdata", "holistic_golden.json"), append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	checkGolden(t, pinnedGolden(t), got)
}

// TestHolisticGoldenRecycled answers the golden queries in shuffled order from
// two goroutines, so each answer's tree is built on an arena some other
// shape's tree released, on either goroutine, and holds them to the golden
// answers all the same.
func TestHolisticGoldenRecycled(t *testing.T) {
	if *update {
		t.Skip("the golden file is being rewritten")
	}
	d, err := goldenFlights()
	if err != nil {
		t.Fatalf("Flights: %v", err)
	}
	pinned := pinnedGolden(t)
	var jobs []goldenKey
	for i := range goldenQueries {
		for seed := int64(1); seed <= goldenSeeds(); seed++ {
			jobs = append(jobs, goldenKey{goldenQueries[i].name, seed})
		}
	}
	rand.New(rand.NewSource(28)).Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	index := make(map[string]int, len(goldenQueries))
	for i, qc := range goldenQueries {
		index[qc.name] = i
	}
	got := make([]goldenAnswer, len(jobs))
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := g; j < len(jobs); j += 2 {
				got[j] = answerGolden(t, d, index[jobs[j].query], jobs[j].seed)
			}
		}()
	}
	wg.Wait()
	checkGolden(t, pinned, got)
}

// recycledKinds is the number of stores an answer takes from free lists:
// the tree's arena, the generator's menu, the sample cache's buffers, the
// row worker's ring and the session's random stream.
const recycledKinds = 5

// answerAlloc plans one answer over the golden flights table with daemon
// budgets (which read all 200 000 rows) and returns the bytes it allocated.
// A warm answer comes after one of the same shape, so it builds on the
// stores that answer released and makes none new; a cold one comes after
// every free list is drained, and makes all of them new. Either is checked
// by counting the stores the answer found no free list to take from.
func answerAlloc(t *testing.T, airport, date int, warm bool) uint64 {
	t.Helper()
	d, err := goldenFlights()
	if err != nil {
		t.Fatalf("Flights: %v", err)
	}
	q := goldenQuery(t, d, airport, date, false, "")
	answer := func() uint64 {
		h := NewHolistic(d, q, daemonTestConfig(1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		out, err := h.Vocalize()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("Vocalize: %v", err)
		}
		if len(out.Speech.Refinements) == 0 {
			t.Fatalf("answer has no refinements: %q", out.Text())
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	answer()
	want := 0
	if !warm {
		freelist.DrainAll()
		want = recycledKinds
	}
	misses := freelist.Misses()
	got := answer()
	if made := freelist.Misses() - misses; made != want {
		t.Fatalf("the answer made %d of its recycled stores new, want %d", made, want)
	}
	return got
}

// checkAnswerAlloc fails t if an answer of the shape allocates over budget
// bytes, warm or cold, or does not make new exactly the stores it should.
// Under the race detector a warm answer is held to the stores only: the race
// runtime's own allocations put it at 0.0104 to 0.0117 MiB on the coarse
// shape and 0.0222 to 0.0269 on the fine one over twelve runs, too close to
// budgets of 0.0125 and 0.0275 to check.
func checkAnswerAlloc(t *testing.T, shape string, airport, date int, warm bool, budget uint64) {
	t.Helper()
	kind := "cold"
	if warm {
		kind = "warm"
	}
	got := answerAlloc(t, airport, date, warm)
	t.Logf("one %s %s answer allocated %.4f MiB", kind, shape, float64(got)/(1<<20))
	if warm && raceDetector {
		t.Log("the warm budget is checked without the race detector")
		return
	}
	if got > budget {
		t.Errorf("one %s %s answer allocated %.4f MiB, budget %.4f MiB",
			kind, shape, float64(got)/(1<<20), float64(budget)/(1<<20))
	}
}

// TestFineAnswerAllocBudget keeps the cost of a fine-grained answer inside
// tier 1: one state-by-month answer (an explore_fine shape, 410 refinement
// candidates per node). A warm answer must allocate under 0.0275 MiB, 1.25x
// the 0.0220 MiB measured once the menu, the sample cache's buffers and the
// random stream are recycled with the tree and only spoken refinements are
// rendered (0.1348 before, most of it the menu's structs and texts; 0.293
// while the fan-outs' child lists were not recycled). What is left is about
// half the space's scope sets, then the space itself, the baseline ladder,
// the preambles, the speaker's transcript and the spoken refinements'
// copies. A cold one, whose tree allocates its arena, must stay under
// 1.67 MiB, 1.25x the 1.337 MiB measured with 32-byte nodes and numbered
// fan-outs (1.757 with 48-byte nodes and a budget of 2.25), most of it the
// 20 000 nodes its samples reach. Materialising every enumerated child
// allocated ~198 MiB; a 4-byte slot per enumerated child and a memoized
// speech per leaf, 7.2 MiB.
func TestFineAnswerAllocBudget(t *testing.T) {
	checkAnswerAlloc(t, "state x month", 2, 2, true, 275<<20/10000)
	checkAnswerAlloc(t, "state x month", 2, 2, false, 1671<<20/1000)
}

// TestCoarseAnswerAllocBudget does the same for the explore_coarse shape,
// one region-by-season answer: under 0.0125 MiB warm, 1.25x the 0.0100
// measured with the menu, the cache's buffers and the random stream recycled
// (0.038 before, 0.158 without recycled child lists), and under 0.81 MiB
// cold, 1.25x the 0.6445 MiB measured with 32-byte nodes and numbered
// fan-outs (0.919 with 48-byte nodes and a budget of 1.125; its 90-wide menu
// saturates some ninety fan-outs). With 16 aggregates the tree is small and
// eagerly built, so what is left of a cold answer is its nodes, and of a
// warm one the same small things as of a fine one; a speech per leaf added
// 1.8 MiB, and storing every row read 6.4 MiB more.
func TestCoarseAnswerAllocBudget(t *testing.T) {
	checkAnswerAlloc(t, "region x season", 1, 1, true, 125<<20/10000)
	checkAnswerAlloc(t, "region x season", 1, 1, false, 806<<20/1000)
}
