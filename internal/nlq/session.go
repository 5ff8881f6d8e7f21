// Package nlq implements the deliberately simple keyword-based input
// interpreter of the paper's study interface: users drill down, roll up,
// and add or remove dimensions in the OLAP result by mentioning related
// keywords, and can ask for help to hear all available keywords. A Session
// holds one user's exploration state and turns each utterance into the
// next OLAP query. A state is a value: a command builds the next one on a
// copy, and a state a session holds or remembers is never written again.
package nlq

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/dimension"
	"repro/internal/olap"
)

// Session is one user's exploration over a dataset: the current state and
// the states "back" returns to. Parse replaces the state only when a command
// succeeds, and nothing here locks, so a session shared between goroutines
// is shared as a value: once published it is only read (Query, Summary,
// Clone), and a command runs on a Clone that then replaces it — which is
// how internal/web keeps its session table.
type Session struct {
	dataset *olap.Dataset
	col     string
	colDesc string

	cur state
	// history holds the states "back" returns to, most recent last.
	history []state
}

// state is one exploration state. Once a session holds it, as its current
// state or in its history, nothing writes to it again, so sessions and
// their clones share states freely.
type state struct {
	fct     olap.AggFunc
	levels  map[*dimension.Hierarchy]int
	order   []*dimension.Hierarchy
	filters map[*dimension.Hierarchy]*dimension.Member
	// window restricts queries to rows ingested in the trailing stream-time
	// window ("in the last hour"); zero means the whole table.
	window time.Duration
}

// maxHistory bounds the undo stack.
const maxHistory = 64

// initial is the state a session starts from and "reset" returns to: the
// first level of the dataset's first hierarchy, unfiltered, over all rows.
func initial(d *olap.Dataset, fct olap.AggFunc) state {
	first := d.Hierarchies()[0]
	return state{
		fct:     fct,
		levels:  map[*dimension.Hierarchy]int{first: 1},
		order:   []*dimension.Hierarchy{first},
		filters: make(map[*dimension.Hierarchy]*dimension.Member),
	}
}

// clone deep-copies a state's maps and slice, for a command to write.
func (st state) clone() state {
	st.levels = maps.Clone(st.levels)
	st.order = slices.Clone(st.order)
	st.filters = maps.Clone(st.filters)
	return st
}

// Clone returns a session that starts where s stands and goes its own way.
// It copies no state: the two share the current state and the history,
// neither of which is written again. The shared history is capped at its
// length, so the first command on either side reallocates it rather than
// appending into the other's backing array.
//
// Clone is what lets the web layer treat a published session as a value: a
// command runs on a clone, which then replaces the published session by
// pointer swap, so a request that is shed or fails leaves nothing behind
// and a client retry cannot double-apply "drill down" or "back".
func (s *Session) Clone() *Session {
	c := *s
	c.history = s.history[:len(s.history):len(s.history)]
	return &c
}

// NewSession starts a session for the dataset's given measure. The initial
// state groups by the first level of the first hierarchy, so the first
// query is always valid.
func NewSession(d *olap.Dataset, fct olap.AggFunc, col, colDesc string) (*Session, error) {
	if len(d.Hierarchies()) == 0 {
		return nil, errors.New("nlq: dataset has no dimensions")
	}
	return &Session{dataset: d, col: col, colDesc: colDesc, cur: initial(d, fct)}, nil
}

// Query assembles the current OLAP query, reconciling filter and group
// levels (a filter finer than the grouping level raises the level).
func (s *Session) Query() olap.Query {
	q := olap.Query{Fct: s.cur.fct, Col: s.col, ColDescription: s.colDesc}
	for _, h := range s.cur.order {
		level := s.cur.levels[h]
		if f, ok := s.cur.filters[h]; ok && f.Level > level {
			level = f.Level
		}
		q.GroupBy = append(q.GroupBy, olap.GroupBy{Hierarchy: h, Level: level})
	}
	for _, h := range s.dataset.Hierarchies() {
		if f, ok := s.cur.filters[h]; ok && !f.IsRoot() {
			q.Filters = append(q.Filters, f)
		}
	}
	if s.cur.window > 0 {
		q.Window = olap.Window{Last: s.cur.window}
	}
	return q
}

// Response reports how an utterance changed the session.
type Response struct {
	// Action names what happened ("drill down", "filter", "help", …).
	Action string
	// Message is spoken feedback (the help text, or a state summary).
	Message string
	// IsQuery is true when the new state should be vocalized.
	IsQuery bool
}

// ErrNotUnderstood reports input without any recognized keyword.
var ErrNotUnderstood = errors.New("nlq: input not understood; say help for available keywords")

// Parse interprets one utterance. "help" changes nothing, and "back"
// reinstates the most recent state of the history. Every other command runs
// on a copy of the current state, which becomes the current state only if
// the command succeeds; the state it replaces goes onto the history. A
// refused command changes nothing.
func (s *Session) Parse(input string) (Response, error) {
	text := strings.ToLower(strings.TrimSpace(input))
	if text == "" {
		return Response{}, ErrNotUnderstood
	}
	if strings.Contains(text, "help") {
		return Response{Action: "help", Message: s.HelpText()}, nil
	}
	if containsWord(text, "back") || containsWord(text, "undo") {
		n := len(s.history)
		if n == 0 {
			return Response{}, errors.New("nlq: nothing to go back to")
		}
		// The shortened stack is capped at its length, so the next command
		// reallocates it instead of overwriting a slot a clone still reads.
		s.cur, s.history = s.history[n-1], s.history[:n-1:n-1]
		return Response{Action: "back", Message: s.Summary(), IsQuery: s.cur.anyGrouped()}, nil
	}
	next := s.cur.clone()
	action, err := s.apply(&next, text)
	if err != nil {
		return Response{}, err
	}
	if s.history = append(s.history, s.cur); len(s.history) > maxHistory {
		s.history = s.history[len(s.history)-maxHistory:]
	}
	s.cur = next
	msg := s.Summary()
	if action == "reset" {
		msg = "Starting over. " + msg
	}
	return Response{Action: action, Message: msg, IsQuery: next.anyGrouped()}, nil
}

// apply runs a command other than help and back on next, the session's own
// copy of its current state, and names what the command did.
func (s *Session) apply(next *state, text string) (string, error) {
	if strings.Contains(text, "reset") {
		*next = initial(s.dataset, next.fct)
		return "reset", nil
	}
	// Aggregation-function switches: "how many"/"count" -> count,
	// "total"/"sum" -> sum, "average"/"typical" -> average.
	fctChanged := false
	if fct, ok := matchAggFunc(text); ok && fct != next.fct {
		next.fct, fctChanged = fct, true
	}
	// Time-window switches: "in the last hour" scopes the session to the
	// trailing stream-time window, "all time" widens it back out.
	windowChanged := false
	if d, set, clear := matchWindow(text); (set && d != next.window) || (clear && next.window > 0) {
		next.window, windowChanged = d, true
	}

	switch {
	case strings.Contains(text, "drill"):
		h := s.target(next, text)
		if h == nil {
			return "", fmt.Errorf("nlq: no dimension to drill into")
		}
		if next.levels[h] == 0 {
			next.addDimension(h, 1)
		} else if next.levels[h] < h.Depth() {
			next.levels[h]++
		}
		return "drill down", nil

	case strings.Contains(text, "roll"):
		h := s.target(next, text)
		if h == nil || next.levels[h] == 0 {
			return "", fmt.Errorf("nlq: no dimension to roll up")
		}
		if next.levels[h] > 1 {
			next.levels[h]--
		} else {
			next.removeDimension(h)
		}
		return "roll up", nil

	case strings.Contains(text, "remove") || strings.Contains(text, "drop"):
		h := s.matchHierarchy(text)
		if h == nil || next.levels[h] == 0 {
			return "", fmt.Errorf("nlq: no matching dimension to remove")
		}
		next.removeDimension(h)
		return "remove", nil

	case strings.Contains(text, "clear"):
		next.filters = make(map[*dimension.Hierarchy]*dimension.Member)
		return "clear filters", nil
	}

	// Declarative: collect mentioned level names and member names.
	type dimAdd struct {
		h     *dimension.Hierarchy
		level int
	}
	var addDims []dimAdd
	for _, h := range s.dataset.Hierarchies() {
		for level := 1; level <= h.Depth(); level++ {
			if containsWord(text, strings.ToLower(h.LevelName(level))) {
				addDims = append(addDims, dimAdd{h, level})
			}
		}
		if containsWord(text, strings.ToLower(h.Name)) && next.levels[h] == 0 {
			addDims = append(addDims, dimAdd{h, 1})
		}
	}
	// Synonyms only when the dataset's own vocabulary did not already name
	// the hierarchy ("same but by carrier" adds the airline dimension).
	if h := s.synonymHierarchy(text); h != nil && next.levels[h] == 0 {
		mentioned := false
		for _, ad := range addDims {
			if ad.h == h {
				mentioned = true
				break
			}
		}
		if !mentioned {
			addDims = append(addDims, dimAdd{h, 1})
		}
	}
	members := s.matchMembers(text)
	if len(addDims) == 0 && len(members) == 0 {
		// Tolerate speech-recognition typos before giving up.
		members = s.fuzzyMatchMembers(text)
	}
	if len(addDims) == 0 && len(members) == 0 {
		if windowChanged {
			return "window", nil
		}
		if fctChanged {
			return "function", nil
		}
		return "", ErrNotUnderstood
	}
	for _, ad := range addDims {
		next.addDimension(ad.h, ad.level)
	}
	for _, m := range members {
		next.filters[m.Hierarchy()] = m
	}
	return "query", nil
}

// matchAggFunc detects a requested aggregation function.
func matchAggFunc(text string) (olap.AggFunc, bool) {
	switch {
	case strings.Contains(text, "how many") || containsWord(text, "count") || containsWord(text, "number"):
		return olap.Count, true
	case containsWord(text, "total") || containsWord(text, "sum"):
		return olap.Sum, true
	case containsWord(text, "average") || containsWord(text, "typical") || containsWord(text, "mean"):
		return olap.Avg, true
	default:
		return 0, false
	}
}

// windowUnits maps spoken time units to durations.
var windowUnits = map[string]time.Duration{
	"second": time.Second, "seconds": time.Second,
	"minute": time.Minute, "minutes": time.Minute,
	"hour": time.Hour, "hours": time.Hour,
	"day": 24 * time.Hour, "days": 24 * time.Hour,
}

// matchWindow detects a trailing time-window phrase: "in the last hour",
// "past 30 minutes", "last 2 days". It returns set=true with the width, or
// clear=true for "all time" / "entire history", which widens the scope
// back to the whole table.
func matchWindow(text string) (d time.Duration, set, clear bool) {
	if strings.Contains(text, "all time") || strings.Contains(text, "entire history") ||
		strings.Contains(text, "whole history") {
		return 0, false, true
	}
	words := splitWords(text)
	for i, w := range words {
		if w != "last" && w != "past" {
			continue
		}
		n, j := 1, i+1
		if j < len(words) {
			if v, err := strconv.Atoi(words[j]); err == nil {
				n, j = v, j+1
			}
		}
		if j >= len(words) || n <= 0 {
			continue
		}
		if unit, ok := windowUnits[words[j]]; ok {
			return time.Duration(n) * unit, true, false
		}
	}
	return 0, false, false
}

// windowPhrase renders a window width as spoken English.
func windowPhrase(d time.Duration) string {
	switch {
	case d == 24*time.Hour:
		return "the last day"
	case d == time.Hour:
		return "the last hour"
	case d == time.Minute:
		return "the last minute"
	case d >= 24*time.Hour && d%(24*time.Hour) == 0:
		return fmt.Sprintf("the last %d days", d/(24*time.Hour))
	case d%time.Hour == 0:
		return fmt.Sprintf("the last %d hours", d/time.Hour)
	case d%time.Minute == 0:
		return fmt.Sprintf("the last %d minutes", d/time.Minute)
	default:
		return fmt.Sprintf("the last %d seconds", d/time.Second)
	}
}

// addDimension groups by h at the given level (idempotent on order).
func (st *state) addDimension(h *dimension.Hierarchy, level int) {
	if st.levels[h] == 0 {
		st.order = append(st.order, h)
	}
	if level > h.Depth() {
		level = h.Depth()
	}
	st.levels[h] = level
}

// removeDimension stops grouping by h.
func (st *state) removeDimension(h *dimension.Hierarchy) {
	delete(st.levels, h)
	for i, o := range st.order {
		if o == h {
			st.order = append(st.order[:i], st.order[i+1:]...)
			break
		}
	}
}

// target returns the hierarchy a drill or roll-up acts on: the one text
// names, else the one st grouped most recently; nil if there is neither.
func (s *Session) target(st *state, text string) *dimension.Hierarchy {
	if h := s.matchHierarchy(text); h != nil {
		return h
	}
	if len(st.order) == 0 {
		return nil
	}
	return st.order[len(st.order)-1]
}

// anyGrouped reports whether at least one dimension is grouped.
func (st state) anyGrouped() bool { return len(st.order) > 0 }

// matchHierarchy finds a hierarchy mentioned by name or level name; spoken
// synonyms ("carrier" for the airline dimension) are a fallback so the
// dataset's own vocabulary always wins.
func (s *Session) matchHierarchy(text string) *dimension.Hierarchy {
	for _, h := range s.dataset.Hierarchies() {
		if containsWord(text, strings.ToLower(h.Name)) {
			return h
		}
		for level := 1; level <= h.Depth(); level++ {
			if containsWord(text, strings.ToLower(h.LevelName(level))) {
				return h
			}
		}
	}
	return s.synonymHierarchy(text)
}

// hierarchySynonyms maps lowercase spoken aliases to canonical hierarchy
// names. Voice users reach for everyday words the schema does not use
// ("carrier" instead of "airline"); ASR output never sees the schema at
// all. Aliases resolve only against hierarchies the bound dataset actually
// has, so datasets owning an identically named dimension are unaffected
// (exact matches are tried first everywhere). The map is shared with the
// semantic-cache canonicalizer via CanonicalName, so the parser and the
// cache key can never disagree about what an alias means.
var hierarchySynonyms = map[string]string{
	"carrier":    "airline",
	"carriers":   "airline",
	"operator":   "airline",
	"operators":  "airline",
	"school":     "college location",
	"schools":    "college location",
	"university": "college location",
}

// CanonicalName resolves a spoken dimension phrase to its canonical
// lowercase hierarchy name: aliases map through the synonym table, every
// other name just lowercases. Cache canonicalization uses this so a key
// built from "carrier" and one built from "airline" collide on purpose.
func CanonicalName(name string) string {
	lower := strings.ToLower(strings.TrimSpace(name))
	if canonical, ok := hierarchySynonyms[lower]; ok {
		return canonical
	}
	return lower
}

// synonymHierarchy resolves the first alias mentioned in text (in text
// order) to a bound hierarchy, or nil. Each word is one map probe instead
// of a scan over every alias.
func (s *Session) synonymHierarchy(text string) *dimension.Hierarchy {
	for _, word := range splitWords(text) {
		canonical, ok := hierarchySynonyms[word]
		if !ok {
			continue
		}
		for _, h := range s.dataset.Hierarchies() {
			if strings.EqualFold(h.Name, canonical) {
				return h
			}
		}
	}
	return nil
}

// splitWords breaks text into lowercase words on the same boundaries
// containsWord uses, so map-based alias lookup matches scan semantics.
func splitWords(text string) []string {
	return strings.FieldsFunc(text, func(r rune) bool {
		return !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9')
	})
}

// matchMembers finds all members whose names appear in the text, keeping
// only the most specific match per hierarchy.
func (s *Session) matchMembers(text string) []*dimension.Member {
	best := make(map[*dimension.Hierarchy]*dimension.Member)
	for _, h := range s.dataset.Hierarchies() {
		for level := 1; level <= h.Depth(); level++ {
			for _, m := range h.MembersAt(level) {
				if containsWord(text, m.LowerName()) {
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

// Summary describes the current state in one spoken sentence.
func (s *Session) Summary() string {
	if !s.cur.anyGrouped() {
		return "No dimensions selected."
	}
	var groups []string
	for _, h := range s.cur.order {
		groups = append(groups, fmt.Sprintf("%s by %s", h.Name, h.LevelName(s.cur.levels[h])))
	}
	msg := fmt.Sprintf("Reporting the %s. Breaking down %s.", s.cur.fct, strings.Join(groups, " and "))
	var filters []string
	for _, h := range s.dataset.Hierarchies() {
		if f, ok := s.cur.filters[h]; ok {
			filters = append(filters, h.Phrase(f))
		}
	}
	if len(filters) > 0 {
		msg += " Considering " + strings.Join(filters, " and ") + "."
	}
	if s.cur.window > 0 {
		msg += " Limited to " + windowPhrase(s.cur.window) + "."
	}
	return msg
}

// HelpText lists the available keywords, dimensions, and levels.
func (s *Session) HelpText() string {
	var b strings.Builder
	b.WriteString("You can say: drill down, roll up, remove, clear, back, reset, or help. ")
	b.WriteString("Say count, total, or average to change the aggregation. ")
	b.WriteString("Say in the last hour or the last 30 minutes to focus on ")
	b.WriteString("recently ingested data, and all time to widen back out. ")
	b.WriteString("You can mention dimension levels to break results down, ")
	b.WriteString("or member names to filter. Available dimensions: ")
	var dims []string
	for _, h := range s.dataset.Hierarchies() {
		var levels []string
		for level := 1; level <= h.Depth(); level++ {
			levels = append(levels, h.LevelName(level))
		}
		dims = append(dims, fmt.Sprintf("%s with levels %s", h.Name, strings.Join(levels, ", ")))
	}
	b.WriteString(strings.Join(dims, "; "))
	b.WriteString(".")
	return b.String()
}

// containsWord reports whether needle occurs in haystack on rough word
// boundaries, preventing "state" from matching "estate".
func containsWord(haystack, needle string) bool {
	if needle == "" {
		return false
	}
	idx := 0
	for {
		i := strings.Index(haystack[idx:], needle)
		if i < 0 {
			return false
		}
		start := idx + i
		end := start + len(needle)
		beforeOK := start == 0 || !isWordChar(haystack[start-1])
		afterOK := end == len(haystack) || !isWordChar(haystack[end])
		if beforeOK && afterOK {
			return true
		}
		idx = start + 1
	}
}

func isWordChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}
