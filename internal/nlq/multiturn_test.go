package nlq

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/olap"
)

// parse fails the test on error and returns the response.
func parse(t *testing.T, s *Session, input string) Response {
	t.Helper()
	r, err := s.Parse(input)
	if err != nil {
		t.Fatalf("Parse(%q): %v", input, err)
	}
	return r
}

// groupedNames lists the grouped hierarchy names in order.
func groupedNames(s *Session) []string {
	var out []string
	for _, gb := range s.Query().GroupBy {
		out = append(out, gb.Hierarchy.Name)
	}
	return out
}

// TestMultiTurnAnaphoraWinter drives the "and for winter?" follow-up: a
// filter mention on an established breakdown must keep the breakdown and
// narrow the scope, and a second season must replace — not stack — the
// first (one filter per hierarchy).
func TestMultiTurnAnaphoraWinter(t *testing.T) {
	s := newFlightsSession(t)
	parse(t, s, "how does cancellation depend on region and season")
	if got := groupedNames(s); len(got) != 2 {
		t.Fatalf("expected 2 grouped dims, got %v", got)
	}

	r := parse(t, s, "and for winter")
	if !r.IsQuery {
		t.Error("follow-up filter should still vocalize")
	}
	if got := groupedNames(s); len(got) != 2 {
		t.Errorf("follow-up dropped the breakdown: %v", got)
	}
	date := s.dataset.HierarchyByName("flight date")
	if f := s.Query().FilterOn(date); f == nil || f.Name != "Winter" {
		t.Fatalf("winter filter missing, got %v", f)
	}

	r = parse(t, s, "and for summer")
	if f := s.Query().FilterOn(date); f == nil || f.Name != "Summer" {
		t.Fatalf("summer should replace winter, got %v", f)
	}
	if !r.IsQuery {
		t.Error("second follow-up should vocalize")
	}
}

// TestMultiTurnSameButByCarrier exercises hierarchy synonyms in a
// follow-up: "same but by carrier" must add the airline dimension while
// keeping prior state, and "drop the carrier" must remove it again.
func TestMultiTurnSameButByCarrier(t *testing.T) {
	s := newFlightsSession(t)
	parse(t, s, "break down by region")

	r := parse(t, s, "same but by carrier")
	if !r.IsQuery {
		t.Error("synonym follow-up should vocalize")
	}
	got := groupedNames(s)
	if len(got) != 2 || got[1] != "airline" {
		t.Fatalf("carrier should add the airline dimension, got %v", got)
	}

	parse(t, s, "drop the carrier")
	got = groupedNames(s)
	if len(got) != 1 || got[0] != "start airport" {
		t.Fatalf("dropping the carrier should remove airline, got %v", got)
	}
}

// TestSynonymNeverShadowsDatasetVocabulary pins the priority rule: a
// dataset that really owns a dimension named like a synonym alias must
// resolve the alias to its own dimension, not through the synonym table.
func TestSynonymNeverShadowsDatasetVocabulary(t *testing.T) {
	s := newFlightsSession(t)
	// "airline" is the real name; the synonym table also routes there, but
	// the direct match must win (same result, different code path).
	if h := s.matchHierarchy("break down by airline"); h == nil || h.Name != "airline" {
		t.Fatalf("direct name match broken: %v", h)
	}
	if h := s.matchHierarchy("break down by carrier"); h == nil || h.Name != "airline" {
		t.Fatalf("synonym match broken: %v", h)
	}
	if h := s.matchHierarchy("break down by nonsense"); h != nil {
		t.Fatalf("unknown word matched %v", h)
	}
}

// TestSynonymOnSalaries checks the college-location aliases on the second
// dataset: a synonym can name the dimension for removal and re-add it
// later, and an alias mention of an already grouped hierarchy is not a
// duplicate add.
func TestSynonymOnSalaries(t *testing.T) {
	d, err := datagen.Salaries(datagen.SalariesConfig{Seed: 4})
	if err != nil {
		t.Fatalf("Salaries: %v", err)
	}
	s, err := NewSession(d, olap.Avg, "midCareerSalary", "average mid-career salary")
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	// The session starts grouped by college location; the alias resolves it
	// for removal even though no schema word appears in the utterance.
	parse(t, s, "drop the school")
	if got := groupedNames(s); len(got) != 0 {
		t.Fatalf("dropping the school should clear the breakdown, got %v", got)
	}
	parse(t, s, "break down by university")
	got := groupedNames(s)
	if len(got) != 1 || got[0] != "college location" {
		t.Fatalf("university should re-add college location, got %v", got)
	}
	// Mentioning another alias again must not duplicate the dimension.
	if r, err := s.Parse("same by schools"); err == nil {
		if got := groupedNames(s); len(got) != 1 {
			t.Fatalf("alias re-mention duplicated the dimension: %v (resp %+v)", got, r)
		}
	}
}

// TestCloneIsolationUnderStagedParses runs a multi-turn script twice in
// lockstep: every utterance is first parsed on a clone (what the web layer
// stages, and admission control may throw away) and then on the session
// itself. The clone's parse must never leak state into the session it was
// cloned from, and both parses must agree on what the command does.
func TestCloneIsolationUnderStagedParses(t *testing.T) {
	s := newFlightsSession(t)
	script := []string{
		"how does cancellation depend on region and season",
		"and for winter",
		"same but by carrier",
		"drill down",
		"back",
		"only flights in summer",
		"reset",
	}
	for _, input := range script {
		before := s.Summary()
		staged := s.Clone()
		sr, serr := staged.Parse(input)
		if after := s.Summary(); after != before {
			t.Fatalf("staged parse of %q mutated the live session:\n before %q\n after  %q", input, before, after)
		}
		lr, lerr := s.Parse(input)
		if (serr == nil) != (lerr == nil) {
			t.Fatalf("staged/live divergence on %q: %v vs %v", input, serr, lerr)
		}
		if serr != nil {
			continue
		}
		if sr.Action != lr.Action || sr.IsQuery != lr.IsQuery || sr.Message != lr.Message {
			t.Fatalf("staged/live response mismatch on %q:\n staged %+v\n live   %+v", input, sr, lr)
		}
	}
}

// TestCloneIsolationOfHistory pins the isolation of the undo stack: undoing
// on a clone after further live mutations must restore the clone's own
// state, untouched by the live session's history edits.
func TestCloneIsolationOfHistory(t *testing.T) {
	s := newFlightsSession(t)
	parse(t, s, "break down by region")
	parse(t, s, "drill down")

	c := s.Clone()
	parse(t, s, "drill down")
	parse(t, s, "back")
	parse(t, s, "back")

	// The clone still sits two drills deep and can undo independently.
	r := parse(t, c, "back")
	if r.Action != "back" {
		t.Fatalf("clone undo action %q", r.Action)
	}
	if sum := c.Summary(); !strings.Contains(sum, "region") && !strings.Contains(sum, "state") {
		t.Errorf("clone summary after undo looks wrong: %q", sum)
	}
	if sum := s.Summary(); !strings.Contains(sum, "region") {
		t.Errorf("live summary after double undo looks wrong: %q", sum)
	}
}

// TestCloneSharedHistoryInterleaved drives the hazard of sharing the undo
// stack between clones: parent and clone start from one full (more than
// maxHistory deep) history and then interleave "back" and new commands at
// random, re-cloning now and then. Each session is checked against its own
// model stack of summaries, so a push that landed in the other's backing
// array, or an installed state written through by a later command, shows
// up as a "back" that restores the wrong state.
func TestCloneSharedHistoryInterleaved(t *testing.T) {
	// Every command here succeeds from any state and pushes one state.
	cmds := []string{
		"only flights in winter", "break down by state", "only flights in summer",
		"break down by month", "break down by region", "only flights in spring",
		"break down by city", "break down by season", "total in the last hour by region",
		"average over all time by state",
	}
	type tracked struct {
		s    *Session
		undo []string
	}
	apply := func(tr *tracked, input string) {
		t.Helper()
		before := tr.s.Summary()
		parse(t, tr.s, input)
		if tr.undo = append(tr.undo, before); len(tr.undo) > maxHistory {
			tr.undo = tr.undo[1:]
		}
	}
	back := func(tr *tracked, who string) {
		t.Helper()
		want := tr.undo[len(tr.undo)-1]
		tr.undo = tr.undo[:len(tr.undo)-1]
		parse(t, tr.s, "back")
		if got := tr.s.Summary(); got != want {
			t.Fatalf("%s: back restored\n  %q\nwant\n  %q", who, got, want)
		}
	}
	fork := func(tr *tracked) *tracked {
		return &tracked{s: tr.s.Clone(), undo: append([]string(nil), tr.undo...)}
	}

	parent := &tracked{s: newFlightsSession(t)}
	for i := 0; i < maxHistory+10; i++ {
		apply(parent, cmds[i%len(cmds)])
	}
	if len(parent.s.history) != maxHistory {
		t.Fatalf("history depth = %d, want %d", len(parent.s.history), maxHistory)
	}
	clone := fork(parent)
	// Both sides push twice onto the shared stack before either pops: with
	// an uncapped share the second pushes land in the same slot.
	apply(parent, "break down by city")
	apply(clone, "break down by region")
	apply(parent, "only flights in spring")
	apply(clone, "only flights in winter")
	back(parent, "parent")
	back(clone, "clone")
	// A pop followed by a push must not reuse the popped slot either.
	apply(clone, "break down by month")
	back(parent, "parent")
	back(clone, "clone")

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		tr, who := parent, "parent"
		if rng.Intn(2) == 0 {
			tr, who = clone, "clone"
		}
		switch {
		case rng.Intn(40) == 0:
			clone = fork(parent)
		case rng.Intn(2) == 0 && len(tr.undo) > 0:
			back(tr, who)
		default:
			apply(tr, cmds[rng.Intn(len(cmds))])
		}
	}
	for len(parent.undo) > 0 {
		back(parent, "parent")
	}
	for len(clone.undo) > 0 {
		back(clone, "clone")
	}
	for _, tr := range []*tracked{parent, clone} {
		if _, err := tr.s.Parse("back"); err == nil {
			t.Error("back on an exhausted history should fail")
		}
	}
}

// TestAggFuncFollowUp covers the "how many" anaphora: switching the
// aggregation function mid-exploration keeps breakdown and filters.
func TestAggFuncFollowUp(t *testing.T) {
	s := newFlightsSession(t)
	parse(t, s, "break down by region")
	parse(t, s, "only flights in winter")
	parse(t, s, "how many flights")
	q := s.Query()
	if q.Fct != olap.Count {
		t.Errorf("how many should switch to count, got %v", q.Fct)
	}
	if len(q.GroupBy) != 1 || q.FilterOn(s.dataset.HierarchyByName("flight date")) == nil {
		t.Error("function switch dropped breakdown or filter")
	}
}
