package nlq

import (
	"strings"
	"unicode"

	"repro/internal/dimension"
)

// Fuzzy member matching tolerates the small transcription errors speech
// recognition introduces ("bostn", "chigago"): when no member name occurs
// verbatim in an utterance, tokens are compared against member names by
// bounded edit distance.

// maxEditDistance allows one typo for short names and two for longer ones.
func maxEditDistance(nameLen int) int {
	switch {
	case nameLen < 5:
		return 0 // short names must match exactly — too many false hits
	case nameLen < 9:
		return 1
	default:
		return 2
	}
}

// levenshtein returns the edit distance between a and b, early-exiting
// once the distance provably exceeds bound (returns bound+1 then).
func levenshtein(a, b string, bound int) int {
	if a == b {
		return 0
	}
	la, lb := len(a), len(b)
	if la-lb > bound || lb-la > bound {
		return bound + 1
	}
	prev := make([]int, lb+1)
	cur := make([]int, lb+1)
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		rowMin := cur[0]
		for j := 1; j <= lb; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			m := prev[j] + 1
			if cur[j-1]+1 < m {
				m = cur[j-1] + 1
			}
			if prev[j-1]+cost < m {
				m = prev[j-1] + cost
			}
			cur[j] = m
			if m < rowMin {
				rowMin = m
			}
		}
		if rowMin > bound {
			return bound + 1
		}
		prev, cur = cur, prev
	}
	if prev[lb] > bound {
		return bound + 1
	}
	return prev[lb]
}

// fuzzyMatchMembers finds members whose lowercase names approximately
// occur in the text: for multi-word names, a window of the same word count
// is compared. The best (lowest-distance) match per hierarchy wins; exact
// matching is always preferred by the caller.
func (s *Session) fuzzyMatchMembers(text string) []*dimension.Member {
	words := strings.Fields(text)
	type hit struct {
		member *dimension.Member
		dist   int
	}
	best := make(map[*dimension.Hierarchy]hit)
	consider := func(m *dimension.Member) {
		name := m.LowerName()
		bound := maxEditDistance(len(name))
		if bound == 0 {
			return
		}
		nWords := countFields(name)
		for i := 0; i+nWords <= len(words); i++ {
			window := strings.Join(words[i:i+nWords], " ")
			d := levenshtein(window, name, bound)
			if d > bound {
				continue
			}
			cur, ok := best[m.Hierarchy()]
			if !ok || d < cur.dist || (d == cur.dist && m.Level > cur.member.Level) {
				best[m.Hierarchy()] = hit{member: m, dist: d}
			}
		}
	}
	for _, h := range s.dataset.Hierarchies() {
		for level := 1; level <= h.Depth(); level++ {
			for _, m := range h.MembersAt(level) {
				consider(m)
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

// countFields returns len(strings.Fields(s)) without building the slice.
func countFields(s string) int {
	n, inField := 0, false
	for _, r := range s {
		if unicode.IsSpace(r) {
			inField = false
		} else if !inField {
			inField = true
			n++
		}
	}
	return n
}

// sortMembers orders members deterministically by hierarchy name.
func sortMembers(ms []*dimension.Member) {
	for i := 1; i < len(ms); i++ {
		for j := i; j > 0 && ms[j-1].Hierarchy().Name > ms[j].Hierarchy().Name; j-- {
			ms[j-1], ms[j] = ms[j], ms[j-1]
		}
	}
}
