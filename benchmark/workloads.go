package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/nlq"
	"repro/internal/olap"
	"repro/internal/semcache"
)

// measureCol and measureDesc are the flights measure the daemon registers;
// the mirrored sessions must be built with the same pair or their canonical
// keys would differ from the server's.
const (
	measureCol  = "cancelled"
	measureDesc = "average cancellation probability"
)

// request is one generated operation: what is sent, and what the mirrored
// nlq.Session says the server must make of it.
type request struct {
	Session string
	Input   string
	// Answer is true when the server must reply with a speech; false for
	// navigation turns that leave nothing grouped ("remove start airport"
	// in a fresh session) and are answered with a message only.
	Answer bool
	// Action and Message are the nlq action and the session summary the
	// reply must carry. The summary spells out levels, filters and window,
	// so a reply that matches it comes from a server session in the
	// mirror's state, and was planned for the query of Key.
	Action  string
	Message string
	// Key is semcache.Key of the query the reply is scored against, Query
	// that query (normalized), Size its number of result aggregates.
	Key   string
	Query olap.Query
	Size  int
}

// session is the requests of one simulated user, sent in order by one
// client.
type session []request

// workload describes one traffic mix. The names are permanent: later
// issues cite them.
type workload struct {
	name string
	why  string
	// clients is the number of query client goroutines (and connections).
	clients int
	// cacheOff disables the semantic answer and view caches, so every
	// answer is planned from scratch.
	cacheOff bool
	// ingest adds one ingest client paced by the query client's progress.
	ingest bool
	// allHits makes any answer not served from tier A a failure.
	allHits bool
	// figure3 makes a traced run also time core.Optimal on the paper's
	// eight Figure 3 queries and compare the planner's quality with it.
	figure3 bool
	// minSize and maxSize bound the result-space size of every answer
	// (0 = unbounded on that side); the generator refuses a list outside.
	minSize, maxSize int
	// sessionsPerSecond sizes a run: the measured phase sends a fixed
	// number of sessions, -seconds times this rate, which is what this
	// commit's parent completed per second on the 2-CPU reference machine
	// in its slower phases, so a run seldom reaches the give-up time.
	// Fixed work, not fixed time, keeps the query mix of every run the same.
	sessionsPerSecond float64
	// scripts are fixed sessions replayed in seed-shuffled blocks of one
	// session per script. A run sends whole blocks, so every run of every
	// seed sends the same multiset of queries. Used when walk is nil.
	scripts []script
	// walk generates Zipf-weighted sessions over a query universe.
	walk *walkSpec
}

// script is one scripted session; each turn lists equivalent phrasings
// separated by '|', of which the seed picks one.
type script []string

// walkSpec drives sessions as a weighted walk over a universe of canonical
// queries: each turn moves to a universe query reachable from the current
// session state in one utterance, chosen with probability proportional to
// 1/rank^s among the reachable ones, through a random utterance that
// reaches it. Every request is therefore an answer inside the universe.
type walkSpec struct {
	// universe lists the canonical queries by rank (most popular first),
	// each as the utterances that reach it from a fresh session.
	universe [][]string
	// moves are the candidate utterances tried at every turn.
	moves []string
	turns int
	s     float64
}

const depend = "how does cancellation depend on "

var workloads = []workload{
	{
		name: "explore_coarse", clients: 1, cacheOff: true, figure3: true, maxSize: 20, sessionsPerSecond: 2,
		why: "one user exploring coarse result spaces (at most 20 aggregates) with caches off: latency at low load, where row sampling and UCT rounds share the work and one core stays idle",
		scripts: []script{
			{
				depend + "region|show me cancellations by region|break it down by region",
				"and by season|add season|also by season",
				"only winter|just winter|focus on winter",
				"drill down into flight date|drill into the month level",
				"back|go back|undo",
				"clear filters|clear",
			},
			{
				depend + "region and season|" + depend + "season and region|break it down by season and region",
				"the north east|only the north east|focus on the north east",
				"drill down into flight date|drill into the month level",
				"back|go back",
				"roll up start airport|roll up the region level",
				"clear filters|clear",
			},
			{
				depend + "season|show me cancellations by season",
				"roll up the region level|remove the start airport|drop start airport",
				"drill down|drill down into flight date",
				"only winter|focus on winter",
				"and region|add region",
				"back|undo",
			},
			{
				depend + "state|break it down by state",
				"the north east|only the north east",
				"and season|add season",
				"back|go back",
				"clear|clear filters",
				"roll up|roll up start airport",
			},
		},
	},
	{
		name: "explore_fine", clients: 2, cacheOff: true, minSize: 50, sessionsPerSecond: 1.25,
		why: "two users on fine-grained result spaces (at least 50 aggregates) with caches off: throughput with both cores busy, where tree build, lazy expansion and the belief reward outweigh row sampling",
		scripts: []script{
			{
				depend + "airline|break it down by carrier|show me cancellations by operator",
				"drill down into start airport|drill into the state level",
				"the south|only the south",
				"clear|clear filters",
				"roll up start airport|roll up the state level",
				"back|go back",
			},
			{
				"remove start airport|drop the start airport",
				depend + "month and airline|" + depend + "airline and month|" + depend + "carrier and month",
				"only flights from the west|the west",
				"clear|clear filters",
				"roll up flight date|roll up the month level",
				"back|undo",
			},
			{
				depend + "city and season|" + depend + "season and city",
				"drill down into flight date|drill into the month level",
				"only winter|focus on winter",
				"clear|clear filters",
				"back|go back",
				"roll up start airport|roll up the city level",
			},
			{
				depend + "state and month|" + depend + "month and state",
				"the midwest|only the midwest",
				"drill down into start airport|drill into the city level",
				"clear|clear filters",
				"roll up flight date|roll up the month level",
				"back|undo",
			},
		},
	},
	{
		name: "repeat_zipf", clients: 2, allHits: true, sessionsPerSecond: 950,
		why:  "two users repeating 17 canonical queries, Zipf(1.2), in equivalent phrasings with default caches: every answer is a tier-A hit, so parse, key, cache, session map, JSON and the global lock do the work",
		walk: zipfWalk(),
	},
	{
		name: "ingest_mix", clients: 1, ingest: true, maxSize: 20, sessionsPerSecond: 6,
		why: "one user on coarse and time-windowed queries while a second client appends 256 rows after every 10th answer: each batch purges the caches, so hits, misses, view builds and appends share one server",
		walk: &walkSpec{
			universe: [][]string{
				{depend + "region and season"},
				{depend + "region"},
				{depend + "region and season", "in the last hour"},
				{depend + "region and season", "only winter"},
				{depend + "state"},
				{depend + "region", "in the last hour"},
				{depend + "region and season", "the north east"},
				{depend + "region and season", "only winter", "in the last hour"},
			},
			moves: []string{
				depend + "region", depend + "region and season", depend + "season and region",
				"and season", "add season", "in the last hour", "in the past hour", "all time", "over all time",
				"only winter", "focus on winter", "the north east", "only the north east",
				"clear filters", "roll up flight date", "remove the flight date",
				"drill down into start airport", "roll up start airport",
			},
			turns: 5, s: 1.2,
		},
	},
}

// zipfWalk builds the repeat_zipf universe in the order of cmd/loadgen's
// semcacheUniverse: six single dimensions, then every cross-hierarchy pair.
// A fresh session already groups by region, so a query without an airport
// level starts by removing that dimension.
func zipfWalk() *walkSpec {
	type dim struct {
		hierarchy string
		aliases   []string
	}
	dims := []dim{
		{"start airport", []string{"region"}},
		{"flight date", []string{"season"}},
		{"airline", []string{"airline", "carrier", "operator"}},
		{"start airport", []string{"state"}},
		{"flight date", []string{"month"}},
		{"start airport", []string{"city"}},
	}
	w := &walkSpec{turns: 5, s: 1.2}
	from := func(d ...dim) []string {
		for _, x := range d {
			if x.hierarchy == "start airport" {
				return nil
			}
		}
		return []string{"remove start airport"}
	}
	for _, d := range dims {
		w.universe = append(w.universe, append(from(d), depend+d.aliases[0]))
		for _, a := range d.aliases {
			w.moves = append(w.moves, depend+a, "and "+a, "add "+a)
		}
	}
	for i, a := range dims {
		for _, b := range dims[i+1:] {
			if a.hierarchy == b.hierarchy {
				continue
			}
			w.universe = append(w.universe, append(from(a, b), depend+a.aliases[0]+" and "+b.aliases[0]))
			for _, x := range a.aliases {
				for _, y := range b.aliases {
					w.moves = append(w.moves, depend+x+" and "+y, depend+y+" and "+x)
				}
			}
		}
	}
	for _, h := range []string{"start airport", "flight date", "airline"} {
		w.moves = append(w.moves, "remove "+h, "drop the "+h, "drill down into "+h, "roll up "+h)
	}
	return w
}

// workloadByName returns the named workload.
func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// newMirror returns a fresh session as the server creates one.
func newMirror(d *olap.Dataset) (*nlq.Session, error) {
	return nlq.NewSession(d, olap.Avg, measureCol, measureDesc)
}

// mirrored applies input to the mirror session and returns the request
// with the server's expected view of it filled in.
func mirrored(d *olap.Dataset, sess *nlq.Session, input string) (request, error) {
	resp, err := sess.Parse(input)
	if err != nil {
		return request{}, fmt.Errorf("utterance %q: %w", input, err)
	}
	r := request{Input: input, Answer: resp.IsQuery, Action: resp.Action, Message: resp.Message}
	if !resp.IsQuery {
		return r, nil
	}
	r.Query = semcache.Normalize(sess.Query())
	r.Key = semcache.Key(r.Query)
	space, err := olap.NewSpace(d, r.Query)
	if err != nil {
		return request{}, fmt.Errorf("utterance %q: %w", input, err)
	}
	r.Size = space.Size()
	return r, nil
}

// sessionCount is the number of sessions a run of the given length sends:
// whole blocks for scripted workloads, and never fewer than four, so even
// the shortest run reaches its tenth answer and with it an ingest batch.
func (w workload) sessionCount(seconds float64) int {
	n := int(math.Round(seconds * w.sessionsPerSecond))
	if block := len(w.scripts); block > 0 {
		n = (n + block/2) / block * block
	}
	return max(n, 4)
}

// generate builds the n sessions of one run of w from seed. The seed
// decides order, phrasing and session boundaries only; d supplies the
// hierarchies the mirrored sessions parse against.
func generate(w workload, d *olap.Dataset, seed int64, n int) ([]session, error) {
	rng := rand.New(rand.NewSource(seed))
	var sessions []session
	var err error
	if w.walk != nil {
		sessions, err = generateWalk(w.walk, d, rng, n)
		rng.Shuffle(len(sessions), func(i, j int) { sessions[i], sessions[j] = sessions[j], sessions[i] })
	} else {
		sessions, err = generateScripts(w.scripts, d, rng, n)
	}
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", w.name, err)
	}
	for i, sess := range sessions {
		for j := range sess {
			r := &sess[j]
			r.Session = fmt.Sprintf("%s-%d-%d", w.name, seed, i)
			if r.Answer && (w.maxSize > 0 && r.Size > w.maxSize || r.Size < w.minSize) {
				return nil, fmt.Errorf("workload %s: %q yields %d aggregates, outside [%d, %d]",
					w.name, r.Input, r.Size, w.minSize, w.maxSize)
			}
		}
	}
	return sessions, nil
}

// generateScripts replays the scripts in shuffled blocks until n sessions
// exist.
func generateScripts(scripts []script, d *olap.Dataset, rng *rand.Rand, n int) ([]session, error) {
	var out []session
	for len(out) < n {
		for _, si := range rng.Perm(len(scripts)) {
			sess, err := scriptSession(scripts[si], d, rng)
			if err != nil {
				return nil, err
			}
			out = append(out, sess)
		}
	}
	return out[:n], nil
}

// scriptSession mirrors one script; rng picks each turn's phrasing, and a
// nil rng the first.
func scriptSession(sc script, d *olap.Dataset, rng *rand.Rand) (session, error) {
	mirror, err := newMirror(d)
	if err != nil {
		return nil, err
	}
	var out session
	for _, turn := range sc {
		phrasings := strings.Split(turn, "|")
		if err := samePhrasings(mirror, phrasings); err != nil {
			return nil, err
		}
		pick := 0
		if rng != nil {
			pick = rng.Intn(len(phrasings))
		}
		r, err := mirrored(d, mirror, phrasings[pick])
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// samePhrasings checks that every phrasing of a turn moves the session to
// the same state, so the choice among them cannot change the query mix.
func samePhrasings(sess *nlq.Session, phrasings []string) error {
	want := ""
	for i, p := range phrasings {
		c := sess.Clone()
		if _, err := c.Parse(p); err != nil {
			return fmt.Errorf("utterance %q: %w", p, err)
		}
		got := c.Summary()
		if i > 0 && got != want {
			return fmt.Errorf("phrasing %q reaches %q, but %q reaches %q", p, got, phrasings[0], want)
		}
		want = got
	}
	return nil
}

// walkState is one session state of a walk: a mirror session in that
// state, never changed once stored, and the moves from it that land
// inside the universe, sorted by the rank of the query they reach.
type walkState struct {
	mirror *nlq.Session
	steps  []walkStep
}

// walkStep is one memoized transition.
type walkStep struct {
	req  request
	rank int
	next string
}

// walkSeed drives which queries a walk visits. It is fixed, so that every
// seed sends the same queries the same number of times and the hit share,
// the planning work and the mean quality of a run do not depend on the
// seed; the run's seed picks the phrasings and shuffles the sessions.
const walkSeed = 1

// generateWalk produces n Zipf-weighted sessions over the walk's universe;
// phrase picks each turn's utterance among those that make the same move.
// Transitions are memoized per state, so a long list costs map lookups,
// not parses; the session summary names the state (levels, order, filters
// and window), which is all a move other than "back" depends on.
func generateWalk(spec *walkSpec, d *olap.Dataset, phrase *rand.Rand, n int) ([]session, error) {
	path := rand.New(rand.NewSource(walkSeed))
	rank := map[string]int{}
	for i, path := range spec.universe {
		mirror, err := newMirror(d)
		if err != nil {
			return nil, err
		}
		var last request
		for _, u := range path {
			if last, err = mirrored(d, mirror, u); err != nil {
				return nil, err
			}
		}
		if _, dup := rank[last.Key]; dup || !last.Answer {
			return nil, fmt.Errorf("universe entry %d (%q) is no answer or repeats an earlier entry", i, path)
		}
		rank[last.Key] = i + 1
	}
	fresh, err := newMirror(d)
	if err != nil {
		return nil, err
	}
	start := fresh.Summary()
	states := map[string]*walkState{start: {mirror: fresh}}
	explore := func(st *walkState) {
		for _, m := range spec.moves {
			c := st.mirror.Clone()
			r, err := mirrored(d, c, m)
			if err != nil || !r.Answer || rank[r.Key] == 0 {
				continue // the move is not understood here, or leaves the universe
			}
			next := c.Summary()
			if states[next] == nil {
				states[next] = &walkState{mirror: c}
			}
			st.steps = append(st.steps, walkStep{req: r, rank: rank[r.Key], next: next})
		}
		sort.SliceStable(st.steps, func(i, j int) bool {
			a, b := st.steps[i], st.steps[j]
			return a.rank < b.rank || a.rank == b.rank && a.next < b.next
		})
	}
	out := make([]session, n)
	for i := range out {
		state := start
		for t := 0; t < spec.turns; t++ {
			st := states[state]
			if st.steps == nil {
				explore(st)
			}
			if len(st.steps) == 0 {
				return nil, fmt.Errorf("no universe query is reachable from state %q", state)
			}
			step := pickStep(st.steps, spec.s, path, phrase)
			out[i] = append(out[i], step.req)
			state = step.next
		}
	}
	return out, nil
}

// pickStep draws from path a reachable query with weight 1/rank^s and one
// of the states it can be reached in, then from phrase one of the
// utterances that lead there. steps is sorted by rank and next state.
func pickStep(steps []walkStep, s float64, path, phrase *rand.Rand) walkStep {
	var total float64
	for i, st := range steps {
		if i == 0 || st.rank != steps[i-1].rank {
			total += math.Pow(float64(st.rank), -s)
		}
	}
	x := path.Float64() * total
	lo, hi := 0, 0
	for {
		for hi = lo; hi < len(steps) && steps[hi].rank == steps[lo].rank; hi++ {
		}
		if x -= math.Pow(float64(steps[lo].rank), -s); x <= 0 || hi == len(steps) {
			break
		}
		lo = hi
	}
	// steps[lo:hi] reach the drawn query; split them by next state.
	var starts []int
	for i := lo; i < hi; i++ {
		if i == lo || steps[i].next != steps[i-1].next {
			starts = append(starts, i)
		}
	}
	g := path.Intn(len(starts))
	lo = starts[g]
	if g+1 < len(starts) {
		hi = starts[g+1]
	}
	return steps[lo+phrase.Intn(hi-lo)]
}

// listHash fingerprints the sessions: two runs that print the same hash
// sent the program identical input.
func listHash(sessions []session) string {
	h := sha256.New()
	for _, sess := range sessions {
		for _, r := range sess {
			fmt.Fprintf(h, "%s\x00%s\n", r.Session, r.Input)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
