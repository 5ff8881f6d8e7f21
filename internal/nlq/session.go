// Package nlq implements the deliberately simple keyword-based input
// interpreter of the paper's study interface: users drill down, roll up,
// and add or remove dimensions in the OLAP result by mentioning related
// keywords, and can ask for help to hear all available keywords. A Session
// holds one user's exploration state and turns each utterance into the
// next OLAP query.
package nlq

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/dimension"
	"repro/internal/olap"
)

// Session is one user's exploration state over a dataset. Parse writes it
// in place and nothing here locks, so a session shared between goroutines
// is shared as a value: once published it is only read (Query, Summary,
// Clone), and a command runs on a Clone that then replaces it — which is
// how internal/web keeps its session table.
type Session struct {
	dataset *olap.Dataset
	fct     olap.AggFunc
	col     string
	colDesc string

	levels  map[*dimension.Hierarchy]int
	order   []*dimension.Hierarchy
	filters map[*dimension.Hierarchy]*dimension.Member
	// window restricts queries to rows ingested in the trailing stream-time
	// window ("in the last hour"); zero means the whole table.
	window time.Duration

	// history holds snapshots for the "back" command, most recent last.
	history []snapshot
}

// snapshot captures the mutable exploration state.
type snapshot struct {
	fct     olap.AggFunc
	levels  map[*dimension.Hierarchy]int
	order   []*dimension.Hierarchy
	filters map[*dimension.Hierarchy]*dimension.Member
	window  time.Duration
}

// maxHistory bounds the undo stack.
const maxHistory = 64

// state returns the live exploration state as a snapshot that aliases it.
func (s *Session) state() snapshot {
	return snapshot{fct: s.fct, levels: s.levels, order: s.order, filters: s.filters, window: s.window}
}

// clone deep-copies a snapshot's maps and slice.
func (snap snapshot) clone() snapshot {
	c := snapshot{
		fct:     snap.fct,
		levels:  make(map[*dimension.Hierarchy]int, len(snap.levels)),
		order:   append([]*dimension.Hierarchy{}, snap.order...),
		filters: make(map[*dimension.Hierarchy]*dimension.Member, len(snap.filters)),
		window:  snap.window,
	}
	for h, l := range snap.levels {
		c.levels[h] = l
	}
	for h, m := range snap.filters {
		c.filters[h] = m
	}
	return c
}

// install makes a private copy of snap the live state: commands write the
// live maps in place, and snap may be shared with clones.
func (s *Session) install(snap snapshot) {
	c := snap.clone()
	s.fct, s.levels, s.order, s.filters, s.window = c.fct, c.levels, c.order, c.filters, c.window
}

// pushHistory records the current state before a mutation. A pushed
// snapshot is never written again.
func (s *Session) pushHistory() {
	s.history = append(s.history, s.state().clone())
	if len(s.history) > maxHistory {
		s.history = s.history[len(s.history)-maxHistory:]
	}
}

// popHistory restores the most recent snapshot; false if none exists. The
// shortened stack is capped at its length, so the next push reallocates
// instead of overwriting a slot a clone still reads.
func (s *Session) popHistory() bool {
	n := len(s.history)
	if n == 0 {
		return false
	}
	s.install(s.history[n-1])
	s.history = s.history[: n-1 : n-1]
	return true
}

// Clone returns an independent copy of the session's exploration state
// (the immutable dataset is shared). The live maps are copied; the undo
// history is shared: pushed snapshots are read-only (popHistory copies the
// one it installs), and the shared slice is capped at its length, so the
// first push on either side reallocates rather than appending into the
// other's backing array.
//
// Clone is what lets the web layer treat a published session as a value: a
// command runs on a clone, which then replaces the published session by
// pointer swap, so a request that is shed or fails leaves nothing behind
// and a client retry cannot double-apply "drill down" or "back".
func (s *Session) Clone() *Session {
	n := len(s.history)
	c := &Session{
		dataset: s.dataset,
		col:     s.col,
		colDesc: s.colDesc,
		history: s.history[:n:n],
	}
	c.install(s.state())
	return c
}

// NewSession starts a session for the dataset's given measure. The initial
// state groups by the first level of the first hierarchy, so the first
// query is always valid.
func NewSession(d *olap.Dataset, fct olap.AggFunc, col, colDesc string) (*Session, error) {
	if len(d.Hierarchies()) == 0 {
		return nil, errors.New("nlq: dataset has no dimensions")
	}
	s := &Session{
		dataset: d,
		fct:     fct,
		col:     col,
		colDesc: colDesc,
		levels:  make(map[*dimension.Hierarchy]int),
		filters: make(map[*dimension.Hierarchy]*dimension.Member),
	}
	first := d.Hierarchies()[0]
	s.levels[first] = 1
	s.order = []*dimension.Hierarchy{first}
	return s, nil
}

// Query assembles the current OLAP query, reconciling filter and group
// levels (a filter finer than the grouping level raises the level).
func (s *Session) Query() olap.Query {
	q := olap.Query{Fct: s.fct, Col: s.col, ColDescription: s.colDesc}
	for _, h := range s.order {
		level := s.levels[h]
		if f, ok := s.filters[h]; ok && f.Level > level {
			level = f.Level
		}
		q.GroupBy = append(q.GroupBy, olap.GroupBy{Hierarchy: h, Level: level})
	}
	for _, h := range s.dataset.Hierarchies() {
		if f, ok := s.filters[h]; ok && !f.IsRoot() {
			q.Filters = append(q.Filters, f)
		}
	}
	if s.window > 0 {
		q.Window = olap.Window{Last: s.window}
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

// Parse interprets one utterance and updates the session state.
func (s *Session) Parse(input string) (Response, error) {
	text := strings.ToLower(strings.TrimSpace(input))
	if text == "" {
		return Response{}, ErrNotUnderstood
	}
	if strings.Contains(text, "help") {
		return Response{Action: "help", Message: s.HelpText()}, nil
	}
	if containsWord(text, "back") || containsWord(text, "undo") {
		if !s.popHistory() {
			return Response{}, errors.New("nlq: nothing to go back to")
		}
		return Response{Action: "back", Message: s.Summary(), IsQuery: s.anyGrouped()}, nil
	}
	if strings.Contains(text, "reset") {
		s.pushHistory()
		first := s.dataset.Hierarchies()[0]
		s.levels = map[*dimension.Hierarchy]int{first: 1}
		s.order = []*dimension.Hierarchy{first}
		s.filters = make(map[*dimension.Hierarchy]*dimension.Member)
		s.window = 0
		return Response{Action: "reset", Message: "Starting over. " + s.Summary(), IsQuery: true}, nil
	}
	// Aggregation-function switches: "how many"/"count" -> count,
	// "total"/"sum" -> sum, "average"/"typical" -> average.
	fctChanged := false
	if fct, ok := matchAggFunc(text); ok && fct != s.fct {
		s.pushHistory()
		s.fct = fct
		fctChanged = true
	}
	// Time-window switches: "in the last hour" scopes the session to the
	// trailing stream-time window, "all time" widens it back out.
	windowChanged := false
	if d, set, clear := matchWindow(text); (set && d != s.window) || (clear && s.window > 0) {
		if !fctChanged {
			s.pushHistory()
		}
		s.window = d
		windowChanged = true
	}
	statePushed := fctChanged || windowChanged

	switch {
	case strings.Contains(text, "drill"):
		h := s.matchHierarchy(text)
		if h == nil {
			h = s.lastGrouped()
		}
		if h == nil {
			return Response{}, fmt.Errorf("nlq: no dimension to drill into")
		}
		if !statePushed {
			s.pushHistory()
		}
		if s.levels[h] == 0 {
			s.addDimension(h, 1)
		} else if s.levels[h] < h.Depth() {
			s.levels[h]++
		}
		return Response{Action: "drill down", Message: s.Summary(), IsQuery: true}, nil

	case strings.Contains(text, "roll"):
		h := s.matchHierarchy(text)
		if h == nil {
			h = s.lastGrouped()
		}
		if h == nil || s.levels[h] == 0 {
			return Response{}, fmt.Errorf("nlq: no dimension to roll up")
		}
		if !statePushed {
			s.pushHistory()
		}
		if s.levels[h] > 1 {
			s.levels[h]--
		} else {
			s.removeDimension(h)
		}
		return Response{Action: "roll up", Message: s.Summary(), IsQuery: s.anyGrouped()}, nil

	case strings.Contains(text, "remove") || strings.Contains(text, "drop"):
		h := s.matchHierarchy(text)
		if h == nil || s.levels[h] == 0 {
			return Response{}, fmt.Errorf("nlq: no matching dimension to remove")
		}
		if !statePushed {
			s.pushHistory()
		}
		s.removeDimension(h)
		return Response{Action: "remove", Message: s.Summary(), IsQuery: s.anyGrouped()}, nil

	case strings.Contains(text, "clear"):
		if !statePushed {
			s.pushHistory()
		}
		s.filters = make(map[*dimension.Hierarchy]*dimension.Member)
		return Response{Action: "clear filters", Message: s.Summary(), IsQuery: s.anyGrouped()}, nil
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
		if containsWord(text, strings.ToLower(h.Name)) && s.levels[h] == 0 {
			addDims = append(addDims, dimAdd{h, 1})
		}
	}
	// Synonyms only when the dataset's own vocabulary did not already name
	// the hierarchy ("same but by carrier" adds the airline dimension).
	if h := s.synonymHierarchy(text); h != nil && s.levels[h] == 0 {
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
			return Response{Action: "window", Message: s.Summary(), IsQuery: s.anyGrouped()}, nil
		}
		if fctChanged {
			return Response{Action: "function", Message: s.Summary(), IsQuery: s.anyGrouped()}, nil
		}
		return Response{}, ErrNotUnderstood
	}
	if !statePushed {
		s.pushHistory()
	}
	for _, ad := range addDims {
		s.addDimension(ad.h, ad.level)
	}
	for _, m := range members {
		s.filters[m.Hierarchy()] = m
	}
	return Response{Action: "query", Message: s.Summary(), IsQuery: s.anyGrouped()}, nil
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
func (s *Session) addDimension(h *dimension.Hierarchy, level int) {
	if s.levels[h] == 0 {
		s.order = append(s.order, h)
	}
	if level > h.Depth() {
		level = h.Depth()
	}
	s.levels[h] = level
}

// removeDimension stops grouping by h.
func (s *Session) removeDimension(h *dimension.Hierarchy) {
	delete(s.levels, h)
	for i, o := range s.order {
		if o == h {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
}

// lastGrouped returns the most recently added grouped hierarchy.
func (s *Session) lastGrouped() *dimension.Hierarchy {
	if len(s.order) == 0 {
		return nil
	}
	return s.order[len(s.order)-1]
}

// anyGrouped reports whether at least one dimension is grouped.
func (s *Session) anyGrouped() bool { return len(s.order) > 0 }

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
	if !s.anyGrouped() {
		return "No dimensions selected."
	}
	var groups []string
	for _, h := range s.order {
		groups = append(groups, fmt.Sprintf("%s by %s", h.Name, h.LevelName(s.levels[h])))
	}
	msg := fmt.Sprintf("Reporting the %s. Breaking down %s.", s.fct, strings.Join(groups, " and "))
	var filters []string
	for _, h := range s.dataset.Hierarchies() {
		if f, ok := s.filters[h]; ok {
			filters = append(filters, h.Phrase(f))
		}
	}
	if len(filters) > 0 {
		msg += " Considering " + strings.Join(filters, " and ") + "."
	}
	if s.window > 0 {
		msg += " Limited to " + windowPhrase(s.window) + "."
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
