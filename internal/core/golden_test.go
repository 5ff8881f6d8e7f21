package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/dimension"
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

// TestHolisticGolden pins the daemon-budget planner bit for bit on eight
// query shapes and three seeds: spoken text, sample and row counts, the
// enumerated tree size, and every committed child's statistics. The tree
// representation may change underneath; none of this may. Regenerate with
// `go test ./internal/core -run TestHolisticGolden -update` only when a
// behaviour change is intended. With -short (CI runs it under the race
// detector, which slows the single-threaded planner forty-fold) only seed 1
// of each query is replayed.
func TestHolisticGolden(t *testing.T) {
	d, err := goldenFlights()
	if err != nil {
		t.Fatalf("Flights: %v", err)
	}
	queries := []struct {
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
	seeds := int64(3)
	if testing.Short() && !*update {
		seeds = 1
	}
	var got []goldenAnswer
	for _, qc := range queries {
		q := goldenQuery(t, d, qc.airport, qc.date, qc.airline, qc.filter)
		for seed := int64(1); seed <= seeds; seed++ {
			cfg := daemonTestConfig(seed)
			cfg.Trace = &Trace{}
			out, err := NewHolistic(d, q, cfg).Vocalize()
			if err != nil {
				t.Fatalf("%s seed %d: %v", qc.name, seed, err)
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
			got = append(got, a)
		}
	}
	path := filepath.Join("testdata", "holistic_golden.json")
	if *update {
		buf, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (generate with -update): %v", err)
	}
	var want []goldenAnswer
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("decode golden: %v", err)
	}
	if len(want) != 3*len(queries) {
		t.Fatalf("golden has %d answers, want %d", len(want), 3*len(queries))
	}
	type key struct {
		query string
		seed  int64
	}
	pinned := make(map[key]goldenAnswer, len(want))
	for _, w := range want {
		pinned[key{w.Query, w.Seed}] = w
	}
	for _, g := range got {
		if w, ok := pinned[key{g.Query, g.Seed}]; !ok || !reflect.DeepEqual(g, w) {
			t.Errorf("%s seed %d diverged from the golden:\n got %+v\nwant %+v", g.Query, g.Seed, g, w)
		}
	}
}

// answerAlloc plans one answer over the golden flights table with daemon
// budgets (which read all 200 000 rows) and returns the bytes it allocated.
func answerAlloc(t *testing.T, airport, date int) uint64 {
	t.Helper()
	d, err := goldenFlights()
	if err != nil {
		t.Fatalf("Flights: %v", err)
	}
	q := goldenQuery(t, d, airport, date, false, "")
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

// TestFineAnswerAllocBudget keeps the cost of a fine-grained answer inside
// tier 1: one state-by-month answer (an explore_fine shape, 410 refinement
// candidates per node) must allocate under 1.67 MiB, 1.25x the 1.337 MiB
// measured with 32-byte nodes and numbered fan-outs (1.757 with 48-byte nodes
// and a budget of 2.25), most of it the 20 000 nodes its samples reach.
// Materialising every enumerated child allocated ~198 MiB; a 4-byte slot per
// enumerated child and a memoized speech per leaf, 7.2 MiB.
func TestFineAnswerAllocBudget(t *testing.T) {
	const budget = 1671 << 20 / 1000
	got := answerAlloc(t, 2, 2)
	t.Logf("one state x month answer allocated %.2f MiB", float64(got)/(1<<20))
	if got > budget {
		t.Errorf("one state x month answer allocated %.2f MiB, budget %.2f MiB",
			float64(got)/(1<<20), float64(budget)/(1<<20))
	}
}

// TestCoarseAnswerAllocBudget does the same for the explore_coarse shape:
// one region-by-season answer must allocate under 0.81 MiB, 1.25x the
// 0.6445 MiB measured with 32-byte nodes and numbered fan-outs (0.919 with
// 48-byte nodes and a budget of 1.125; its 90-wide menu saturates some ninety
// fan-outs). With 16 aggregates the tree is small and eagerly built, so what
// is left is its nodes; a speech per leaf added 1.8 MiB, and storing every
// row read 6.4 MiB more.
func TestCoarseAnswerAllocBudget(t *testing.T) {
	const budget = 806 << 20 / 1000
	got := answerAlloc(t, 1, 1)
	t.Logf("one region x season answer allocated %.2f MiB", float64(got)/(1<<20))
	if got > budget {
		t.Errorf("one region x season answer allocated %.2f MiB, budget %.2f MiB",
			float64(got)/(1<<20), float64(budget)/(1<<20))
	}
}
