package nlq

import (
	"strings"
	"testing"
	"time"
)

func TestParseWindowPhrases(t *testing.T) {
	cases := []struct {
		text string
		want time.Duration
	}{
		{"show me delays in the last hour", time.Hour},
		{"past 30 minutes", 30 * time.Minute},
		{"what about the last 2 hours", 2 * time.Hour},
		{"over the last day", 24 * time.Hour},
		{"in the past 45 seconds", 45 * time.Second},
	}
	for _, c := range cases {
		s := newFlightsSession(t)
		r, err := s.Parse(c.text)
		if err != nil {
			t.Fatalf("%q: %v", c.text, err)
		}
		if s.Query().Window.Last != c.want {
			t.Fatalf("%q: window = %v, want %v", c.text, s.Query().Window.Last, c.want)
		}
		if !r.IsQuery {
			t.Fatalf("%q: window change should re-vocalize the query", c.text)
		}
		if q := s.Query(); q.Window.Last != c.want {
			t.Fatalf("%q: query window = %v", c.text, q.Window.Last)
		}
	}
}

func TestParseWindowClearAndUndo(t *testing.T) {
	s := newFlightsSession(t)
	if _, err := s.Parse("in the last hour"); err != nil {
		t.Fatal(err)
	}
	if s.Query().Window.Last != time.Hour {
		t.Fatalf("window = %v", s.Query().Window.Last)
	}
	// "all time" widens back out.
	if _, err := s.Parse("show all time again"); err != nil {
		t.Fatal(err)
	}
	if s.Query().Window.Last != 0 {
		t.Fatalf("window after all time = %v", s.Query().Window.Last)
	}
	if !s.Query().Window.IsZero() {
		t.Fatal("cleared window still reaches the query")
	}
	// "back" restores the windowed state, then the unwindowed one.
	if _, err := s.Parse("go back"); err != nil {
		t.Fatal(err)
	}
	if s.Query().Window.Last != time.Hour {
		t.Fatalf("window after undo = %v", s.Query().Window.Last)
	}
	if _, err := s.Parse("go back"); err != nil {
		t.Fatal(err)
	}
	if s.Query().Window.Last != 0 {
		t.Fatalf("window after second undo = %v", s.Query().Window.Last)
	}
}

func TestParseWindowWithDimensionAndFunction(t *testing.T) {
	s := newFlightsSession(t)
	// One utterance changing function, window, and grouping pushes a single
	// undo frame.
	r, err := s.Parse("count by region in the last 10 minutes")
	if err != nil {
		t.Fatal(err)
	}
	if !r.IsQuery {
		t.Fatal("combined utterance should query")
	}
	if s.Query().Window.Last != 10*time.Minute {
		t.Fatalf("window = %v", s.Query().Window.Last)
	}
	if len(s.history) != 1 {
		t.Fatalf("history depth = %d, want 1", len(s.history))
	}
	if _, err := s.Parse("go back"); err != nil {
		t.Fatal(err)
	}
	if s.Query().Window.Last != 0 {
		t.Fatalf("window after undo = %v", s.Query().Window.Last)
	}
	// A repeated identical window is not a state change on its own.
	if _, err := s.Parse("in the last hour"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Parse("in the last hour"); err == nil {
		t.Fatal("repeating the same window should not be understood as new")
	}
}

func TestWindowInSummaryAndClone(t *testing.T) {
	s := newFlightsSession(t)
	if _, err := s.Parse("in the last 15 minutes"); err != nil {
		t.Fatal(err)
	}
	if got := s.Summary(); !strings.Contains(got, "the last 15 minutes") {
		t.Fatalf("summary missing window: %q", got)
	}
	c := s.Clone()
	if c.Query().Window.Last != 15*time.Minute {
		t.Fatalf("clone window = %v", c.Query().Window.Last)
	}
	if _, err := c.Parse("all time"); err != nil {
		t.Fatal(err)
	}
	if s.Query().Window.Last != 15*time.Minute {
		t.Fatal("mutating the clone changed the original")
	}
}
