package nlq

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dimension"
	"repro/internal/faults"
	"repro/internal/olap"
)

// refMatchMembers is the reference for matchMembers: it lowercases every
// member name on every call instead of reading Member.LowerName.
func refMatchMembers(s *Session, text string) []*dimension.Member {
	best := make(map[*dimension.Hierarchy]*dimension.Member)
	for _, h := range s.dataset.Hierarchies() {
		for level := 1; level <= h.Depth(); level++ {
			for _, m := range h.MembersAt(level) {
				if containsWord(text, strings.ToLower(m.Name)) {
					if cur, ok := best[h]; !ok || m.Level > cur.Level {
						best[h] = m
					}
				}
			}
		}
	}
	var out []*dimension.Member
	for _, m := range best {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].Hierarchy().Name < out[j].Hierarchy().Name
	})
	return out
}

// refFuzzyMatchMembers is the reference for fuzzyMatchMembers: it
// lowercases and splits every member name on every call.
func refFuzzyMatchMembers(s *Session, text string) []*dimension.Member {
	words := strings.Fields(text)
	type hit struct {
		member *dimension.Member
		dist   int
	}
	best := make(map[*dimension.Hierarchy]hit)
	for _, h := range s.dataset.Hierarchies() {
		for level := 1; level <= h.Depth(); level++ {
			for _, m := range h.MembersAt(level) {
				name := strings.ToLower(m.Name)
				bound := maxEditDistance(len(name))
				if bound == 0 {
					continue
				}
				nWords := len(strings.Fields(name))
				for i := 0; i+nWords <= len(words); i++ {
					d := levenshtein(strings.Join(words[i:i+nWords], " "), name, bound)
					if d > bound {
						continue
					}
					cur, ok := best[h]
					if !ok || d < cur.dist || (d == cur.dist && m.Level > cur.member.Level) {
						best[h] = hit{member: m, dist: d}
					}
				}
			}
		}
	}
	var out []*dimension.Member
	for _, h := range best {
		out = append(out, h.member)
	}
	sortMembers(out)
	return out
}

// sameMembers reports whether a and b hold the same members in any order.
func sameMembers(a, b []*dimension.Member) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[*dimension.Member]bool, len(a))
	for _, m := range a {
		seen[m] = true
	}
	for _, m := range b {
		if !seen[m] {
			return false
		}
	}
	return true
}

// goldenUtterances are commands of the kinds the web tests and the
// scenario scripts send, with mixed-case member mentions as a keyboard user
// types them.
var goldenUtterances = []string{
	"how does cancellation depend on region and carrier",
	"how does cancellation depend on airline and region",
	"how does cancellation depend on season",
	"and for winter",
	"only flights in winter",
	"only flights in summer",
	"break down by region and season",
	"break down by state",
	"break down by airline",
	"same but by carrier",
	"drill down",
	"roll up",
	"how many flights",
	"only flights from the North East",
	"only JetBlue Airways flights",
	"only jetblue airways flights in the last hour",
	"flights operated by American Eagle Airlines Inc. in Winter",
	"only flights from New York City in December",
	"how about the MIDWEST in Summer",
	"break down by month for Virgin America",
	"only flights from Boston and New York",
	"only american airlines inc. flights",
	"only flights from the United States territories",
	"break down by university",
	"average mid-career salary for California",
	"colorless green ideas",
}

// TestMemberMatchingMatchesPerCallLowercasing holds the exact and fuzzy
// member matchers, which read Member.LowerName, to the reference matchers
// above on the golden utterances, on the corrupter's ASR-noise renderings
// of them and of every member name, and on mixed-case mentions of every
// member, over flights, the star-schema flights and salaries. Each
// utterance is also parsed on a fresh session: a declarative query must
// leave exactly the filters the reference matchers select.
func TestMemberMatchingMatchesPerCallLowercasing(t *testing.T) {
	flights, err := datagen.Flights(datagen.FlightsConfig{Rows: 500, Seed: 91})
	if err != nil {
		t.Fatal(err)
	}
	star, err := datagen.StarFlights(datagen.FlightsConfig{Rows: 500, Seed: 91})
	if err != nil {
		t.Fatal(err)
	}
	salaries, err := datagen.Salaries(datagen.SalariesConfig{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		d         *olap.Dataset
		col, desc string
	}{
		{"flights", flights, "cancelled", "average cancellation probability"},
		{"star flights", star, "cancelled", "average cancellation probability"},
		{"salaries", salaries, "midCareerSalary", "average mid-career salary"},
	} {
		base, err := NewSession(tc.d, olap.Avg, tc.col, tc.desc)
		if err != nil {
			t.Fatalf("%s: NewSession: %v", tc.name, err)
		}
		corpus := append([]string(nil), goldenUtterances...)
		for _, h := range tc.d.Hierarchies() {
			for level := 1; level <= h.Depth(); level++ {
				for _, m := range h.MembersAt(level) {
					corpus = append(corpus, "only "+m.Name)
				}
			}
		}
		c := faults.NewCorrupter(faults.CorruptConfig{Seed: 17, Homophones: true})
		for _, u := range corpus[:len(corpus):len(corpus)] {
			corpus = append(corpus, c.Corrupt(strings.ToLower(u)))
		}
		fuzzyHits := 0
		for _, u := range corpus {
			text := strings.ToLower(strings.TrimSpace(u)) // what Parse matches on
			exact, fuzzy := refMatchMembers(base, text), refFuzzyMatchMembers(base, text)
			if got := base.matchMembers(text); fmt.Sprint(got) != fmt.Sprint(exact) {
				t.Errorf("%s %q: matchMembers = %v, reference %v", tc.name, u, got, exact)
			}
			if got := base.fuzzyMatchMembers(text); fmt.Sprint(got) != fmt.Sprint(fuzzy) {
				t.Errorf("%s %q: fuzzyMatchMembers = %v, reference %v", tc.name, u, got, fuzzy)
			}
			s := base.Clone()
			resp, err := s.Parse(u)
			if err != nil || resp.Action != "query" {
				continue
			}
			// Parse falls back to the fuzzy matcher only when neither a
			// member nor a dimension was named exactly; a named dimension
			// leaves the filters as they were.
			want := exact
			if len(exact) == 0 {
				want = fuzzy
			}
			got := s.Query().Filters
			if !sameMembers(got, want) && !(len(exact) == 0 && len(got) == 0) {
				t.Errorf("%s %q: Parse filters %v, reference %v", tc.name, u, got, want)
			}
			if len(exact) == 0 && len(got) > 0 {
				fuzzyHits++
			}
		}
		if fuzzyHits == 0 {
			t.Errorf("%s: no utterance of %d reached the fuzzy matcher", tc.name, len(corpus))
		}
	}
}
