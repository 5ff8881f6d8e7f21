package nlq

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/faults"
	"repro/internal/olap"
)

// FuzzParse feeds arbitrary utterances to a fresh session and to one in
// the middle of an exploration, each time on a clone. Parse must not
// panic; a parse that returns no error and asks for an answer (IsQuery)
// must leave a query olap.NewSpace accepts; and the parent session's
// summary must not move, since staging a command on a clone is how the
// server keeps a command it sheds from touching its session. The parent
// then parses the same utterance itself: if Parse refuses it, the parent's
// summary, query and history depth must be what they were, since a refused
// command changes nothing. The seed corpus is the scripted utterances and
// their ASR-noise renderings at a few seeds.
func FuzzParse(f *testing.F) {
	d, err := datagen.Flights(datagen.FlightsConfig{Rows: 2000, Seed: 91})
	if err != nil {
		f.Fatal(err)
	}
	fresh, err := NewSession(d, olap.Avg, "cancelled", "average cancellation probability")
	if err != nil {
		f.Fatal(err)
	}
	exploring := fresh.Clone()
	for _, u := range []string{"how does cancellation depend on region and season", "only flights in winter", "drill down"} {
		if _, err := exploring.Parse(u); err != nil {
			f.Fatalf("%q: %v", u, err)
		}
	}

	for _, u := range goldenUtterances {
		f.Add(u)
	}
	for seed := int64(1); seed <= 3; seed++ {
		c := faults.NewCorrupter(faults.CorruptConfig{Seed: seed, Homophones: seed%2 == 1})
		for _, u := range goldenUtterances {
			f.Add(c.Corrupt(strings.ToLower(u)))
		}
	}

	f.Fuzz(func(t *testing.T, input string) {
		for _, start := range []*Session{fresh, exploring} {
			parent := start.Clone()
			before, query, depth := parent.Summary(), parent.Query(), len(parent.history)
			s := parent.Clone()
			resp, err := s.Parse(input)
			if after := parent.Summary(); after != before {
				t.Fatalf("%q on a clone moved its parent from %q to %q", input, before, after)
			}
			if err == nil && resp.IsQuery {
				if _, err := olap.NewSpace(d, s.Query()); err != nil {
					t.Fatalf("%q parsed, but its query %+v has no space: %v", input, s.Query(), err)
				}
			}
			if _, err := parent.Parse(input); err == nil {
				continue
			}
			if after := parent.Summary(); after != before {
				t.Fatalf("refused %q moved the summary from %q to %q", input, before, after)
			}
			if after := parent.Query(); !reflect.DeepEqual(after, query) {
				t.Fatalf("refused %q moved the query from %+v to %+v", input, query, after)
			}
			if after := len(parent.history); after != depth {
				t.Fatalf("refused %q left the history %d deep, want %d", input, after, depth)
			}
		}
	})
}
