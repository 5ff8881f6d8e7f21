package nlq

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// TestRefusedCommandLeavesSession: a command Parse refuses changes nothing,
// even when it also names a new aggregation function or time window. Each
// of these is refused for its dimension command, and none may switch the
// function or window or leave an undo entry behind.
func TestRefusedCommandLeavesSession(t *testing.T) {
	for _, input := range []string{
		"how many remove",
		"in the last hour remove",
		"total roll up the airline",
		"count drop carrier",
	} {
		s := newFlightsSession(t)
		summary, query, depth := s.Summary(), s.Query(), len(s.history)
		if _, err := s.Parse(input); err == nil {
			t.Fatalf("%q parsed; want it refused", input)
		}
		if got := s.Summary(); got != summary {
			t.Errorf("refused %q moved the summary from %q to %q", input, summary, got)
		}
		if got := s.Query(); !reflect.DeepEqual(got, query) {
			t.Errorf("refused %q moved the query from %+v to %+v", input, query, got)
		}
		if got := len(s.history); got != depth {
			t.Errorf("refused %q left the history %d deep, want %d", input, got, depth)
		}
	}
}

// TestConcurrentClonesShareStates does what the web tier's stage step does
// from many requests at once: eight goroutines clone one published session
// and run commands on their clones, "back" and refused commands among them,
// while reading the published session. The clones share its current state
// and history, so a command that wrote to a shared state would show up as a
// race under -race, or as a published summary that moved.
func TestConcurrentClonesShareStates(t *testing.T) {
	s := newFlightsSession(t)
	for _, u := range []string{"break down by region and season", "only flights in winter", "drill down"} {
		parse(t, s, u)
	}
	want := s.Summary()
	cmds := []string{
		"drill down", "roll up", "back", "undo", "only flights in summer", "break down by airline",
		"count", "in the last hour", "all time", "clear filters", "reset", "remove the region",
		// Refused: each names a function or window as well.
		"how many remove", "in the last hour remove", "total roll up the airline", "count drop carrier",
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			c := s.Clone()
			for i := 0; i < 300; i++ {
				if rng.Intn(10) == 0 {
					c = s.Clone()
				}
				c.Parse(cmds[rng.Intn(len(cmds))])
				c.Query()
				if got := s.Summary(); got != want {
					errs <- fmt.Errorf("published summary moved to %q", got)
					return
				}
				s.Query()
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := s.Summary(); got != want {
		t.Fatalf("published summary after the clones ran = %q, want %q", got, want)
	}
}
