package nlq

import (
	"strings"
	"testing"

	"repro/internal/olap"
)

func TestBackUndoesDrill(t *testing.T) {
	s := newFlightsSession(t)
	if _, err := s.Parse("drill down start airport"); err != nil {
		t.Fatalf("drill: %v", err)
	}
	if got := s.Query().GroupBy[0].Level; got != 2 {
		t.Fatalf("level = %d, want 2", got)
	}
	r, err := s.Parse("go back")
	if err != nil {
		t.Fatalf("back: %v", err)
	}
	if r.Action != "back" {
		t.Errorf("action = %q", r.Action)
	}
	if got := s.Query().GroupBy[0].Level; got != 1 {
		t.Errorf("level after back = %d, want 1", got)
	}
}

func TestBackUndoesFilter(t *testing.T) {
	s := newFlightsSession(t)
	if _, err := s.Parse("only flights in Winter"); err != nil {
		t.Fatalf("filter: %v", err)
	}
	if len(s.Query().Filters) != 1 {
		t.Fatal("expected a filter")
	}
	if _, err := s.Parse("undo that"); err != nil {
		t.Fatalf("undo: %v", err)
	}
	if len(s.Query().Filters) != 0 {
		t.Error("filter should be undone")
	}
}

func TestBackWithEmptyHistory(t *testing.T) {
	s := newFlightsSession(t)
	if _, err := s.Parse("back"); err == nil {
		t.Error("back on fresh session should fail")
	}
}

func TestBackChain(t *testing.T) {
	s := newFlightsSession(t)
	inputs := []string{
		"break down by season",
		"drill down flight date",
		"only Winter flights",
	}
	for _, in := range inputs {
		if _, err := s.Parse(in); err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
	}
	for range inputs {
		if _, err := s.Parse("back"); err != nil {
			t.Fatalf("back: %v", err)
		}
	}
	q := s.Query()
	if len(q.GroupBy) != 1 || q.GroupBy[0].Level != 1 || len(q.Filters) != 0 {
		t.Errorf("state after full undo = %+v", q)
	}
}

func TestAggregationSwitch(t *testing.T) {
	s := newFlightsSession(t)
	r, err := s.Parse("how many flights are there")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !r.IsQuery {
		t.Error("function switch should re-query")
	}
	if got := s.Query().Fct; got != olap.Count {
		t.Errorf("fct = %v, want count", got)
	}
	if _, err := s.Parse("back to the average please"); err != nil {
		t.Fatalf("Parse: %v", err)
	}
	// "back" wins over "average" since it is checked first; the state
	// reverts to the pre-count state.
	if got := s.Query().Fct; got != olap.Avg {
		t.Errorf("fct after back = %v, want average", got)
	}
	if _, err := s.Parse("give me the total instead"); err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got := s.Query().Fct; got != olap.Sum {
		t.Errorf("fct = %v, want sum", got)
	}
}

func TestAggregationSwitchWithDimensions(t *testing.T) {
	s := newFlightsSession(t)
	if _, err := s.Parse("count of flights by region and season"); err != nil {
		t.Fatalf("Parse: %v", err)
	}
	q := s.Query()
	if q.Fct != olap.Count {
		t.Errorf("fct = %v", q.Fct)
	}
	if len(q.GroupBy) != 2 {
		t.Errorf("groupBy = %d dims", len(q.GroupBy))
	}
	// One back undoes the whole combined utterance.
	if _, err := s.Parse("back"); err != nil {
		t.Fatalf("back: %v", err)
	}
	q = s.Query()
	if q.Fct != olap.Avg || len(q.GroupBy) != 1 {
		t.Errorf("state after back = fct %v, %d dims", q.Fct, len(q.GroupBy))
	}
}

func TestSummaryMentionsFunction(t *testing.T) {
	s := newFlightsSession(t)
	if !strings.Contains(s.Summary(), "average") {
		t.Errorf("summary = %q", s.Summary())
	}
	if _, err := s.Parse("switch to count"); err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !strings.Contains(s.Summary(), "count") {
		t.Errorf("summary = %q", s.Summary())
	}
}

func TestMatchAggFunc(t *testing.T) {
	cases := []struct {
		text string
		fct  olap.AggFunc
		ok   bool
	}{
		{"how many flights", olap.Count, true},
		{"the number of flights", olap.Count, true},
		{"total cancellations", olap.Sum, true},
		{"the sum please", olap.Sum, true},
		{"typical value", olap.Avg, true},
		{"the mean", olap.Avg, true},
		{"drill down", 0, false},
		{"demeanor counts for nothing", olap.Count, true}, // "counts"?? no: "count" word-bound
	}
	for _, c := range cases[:len(cases)-1] {
		fct, ok := matchAggFunc(c.text)
		if ok != c.ok || (ok && fct != c.fct) {
			t.Errorf("matchAggFunc(%q) = %v,%v", c.text, fct, ok)
		}
	}
	// Word boundaries: "demeanor" and "counts" must not match.
	if _, ok := matchAggFunc("demeanor accounts for nothing"); ok {
		t.Error("substrings inside words should not match")
	}
}

func TestHelpMentionsNewKeywords(t *testing.T) {
	s := newFlightsSession(t)
	help := s.HelpText()
	for _, kw := range []string{"back", "count", "total", "average"} {
		if !strings.Contains(help, kw) {
			t.Errorf("help missing %q", kw)
		}
	}
}
