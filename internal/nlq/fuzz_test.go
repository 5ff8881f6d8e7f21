package nlq

import (
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
// server keeps a refused command from touching its session. The seed
// corpus is the scripted utterances and their ASR-noise renderings at a
// few seeds.
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
		for _, parent := range []*Session{fresh, exploring} {
			before := parent.Summary()
			s := parent.Clone()
			resp, err := s.Parse(input)
			if after := parent.Summary(); after != before {
				t.Fatalf("%q on a clone moved its parent from %q to %q", input, before, after)
			}
			if err != nil || !resp.IsQuery {
				continue
			}
			if _, err := olap.NewSpace(d, s.Query()); err != nil {
				t.Fatalf("%q parsed, but its query %+v has no space: %v", input, s.Query(), err)
			}
		}
	})
}
