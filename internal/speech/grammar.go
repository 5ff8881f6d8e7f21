package speech

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"repro/internal/dimension"
	"repro/internal/olap"
	"repro/internal/stats"
)

// Direction is the sense of a refinement's change descriptor.
type Direction int

// Refinement change directions.
const (
	Increase Direction = iota
	Decrease
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	if d == Increase {
		return "increase"
	}
	return "decrease"
}

// Preamble summarizes the input query: the considered scope (one phrase per
// dimension, using the filter member or the dimension root) and the
// breakdown levels.
type Preamble struct {
	// ScopePhrases are the rendered per-dimension scope descriptions,
	// e.g. "flights starting from any airport".
	ScopePhrases []string
	// LevelNames are the group-by level names, e.g. ["region", "season"].
	LevelNames []string
}

// Text renders the preamble sentence(s).
func (p *Preamble) Text() string {
	var b strings.Builder
	b.WriteString("Considering ")
	b.WriteString(joinPhrases(p.ScopePhrases))
	b.WriteString(".")
	if len(p.LevelNames) > 0 {
		b.WriteString(" Results are broken down by ")
		b.WriteString(joinPhrases(p.LevelNames))
		b.WriteString(".")
	}
	return b.String()
}

// Baseline is the single absolute statement of a speech: a typical value
// for the whole query result.
type Baseline struct {
	// Value is the rounded value the sentence commits to.
	Value float64
	// AggName is the spoken aggregate name ("average cancellation
	// probability").
	AggName string
	// Format selects value rendering.
	Format ValueFormat

	text string // memoized rendering
}

// Text renders the baseline sentence, e.g.
// "Around two percent is the average cancellation probability.".
// The rendering is memoized: fragments are shared across many candidate
// speeches during tree search, and length checks are on the hot path.
func (b *Baseline) Text() string {
	if b.text == "" {
		b.text = fmt.Sprintf("Around %s is the %s.", FormatValue(b.Value, b.Format), b.AggName)
	}
	return b.text
}

// Refinement is a relative statement about a subset of aggregates.
type Refinement struct {
	// Preds scope the refinement; each is a member of a distinct
	// dimension hierarchy.
	Preds []*dimension.Member
	// Dir is the change direction.
	Dir Direction
	// Percent is the change quantifier ("by 50 percent").
	Percent int
	// ScopeSize is the number of result aggregates within scope (m in the
	// paper's semantics), precomputed at candidate generation time.
	ScopeSize int
	// Scope is the precomputed membership bitset of Preds over the query's
	// aggregate space, set at candidate generation time. Scorers use it to
	// sweep a refinement's scope in one bitset pass; nil (hand-built
	// refinements) falls back to Space.InScope.
	Scope *olap.ScopeSet

	text string // memoized rendering
}

// Text renders the refinement sentence, e.g.
// "Values increase by 50 percent for flights starting from the North East.".
// Memoized: candidate refinements are shared by many speeches.
func (r *Refinement) Text() string {
	if r.text == "" {
		phrases := make([]string, len(r.Preds))
		for i, p := range r.Preds {
			phrases[i] = p.Hierarchy().Phrase(p)
		}
		r.text = fmt.Sprintf("Values %s by %d percent for %s.", r.Dir, r.Percent, joinPhrases(phrases))
	}
	return r.text
}

// TextLen returns len(r.Text()) without rendering the text: the member
// phrases' lengths plus the sentence frame's. The planner checks every
// menu refinement against the character limit and speaks at most
// Prefs.MaxFragments of them, so only those are ever rendered.
func (r *Refinement) TextLen() int {
	n := len("Values ") + len(r.Dir.String()) + len(" by ") + intLen(r.Percent) + len(" percent for ") + len(".")
	for i, p := range r.Preds {
		n += p.Hierarchy().PhraseLen(p)
		switch {
		case i == 0:
		case i == len(r.Preds)-1:
			n += len(" and ")
		default:
			n += len(", ")
		}
	}
	return n
}

// intLen returns len(strconv.Itoa(v)).
func intLen(v int) int {
	n := 1
	if v < 0 {
		n++
	}
	for ; v >= 10 || v <= -10; v /= 10 {
		n++
	}
	return n
}

// Detach points every entry of refs at a copy of the refinement it holds,
// with its own predicate slice and its text rendered. A generator's menu is
// reused once its answer is released (Generator.Release), and a refinement
// renders its text on first use; a detached copy shares neither, so nothing
// writes it again and goroutines may read it at once.
func Detach(refs []*Refinement) {
	if len(refs) == 0 {
		return
	}
	own := make([]Refinement, len(refs))
	for i, r := range refs {
		r.Text()
		own[i] = *r
		own[i].Preds = slices.Clone(r.Preds)
		refs[i] = &own[i]
	}
}

// SameScope reports whether two refinements address the identical predicate
// set (same members, order-insensitive).
func (r *Refinement) SameScope(o *Refinement) bool {
	if len(r.Preds) != len(o.Preds) {
		return false
	}
	for _, p := range r.Preds {
		found := false
		for _, q := range o.Preds {
			if p == q {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Subsumes reports whether r's scope is a superset of o's scope: every
// predicate of r must be matched by a predicate of o on the same hierarchy
// that is a descendant (or equal). Refinements on disjoint hierarchies do
// not subsume one another.
func (r *Refinement) Subsumes(o *Refinement) bool {
	for _, p := range r.Preds {
		matched := false
		for _, q := range o.Preds {
			if q.Hierarchy() == p.Hierarchy() && q.IsDescendantOf(p) {
				matched = true
				break
			}
		}
		if !matched {
			return false
		}
	}
	return true
}

// Speech is a full vocalization: preamble, baseline, refinements.
type Speech struct {
	Preamble    *Preamble
	Baseline    *Baseline
	Refinements []*Refinement

	// deltas memoizes Deltas(). Clone and Extend return fresh structs and
	// SetFragments recomputes it, so a memo never describes a stale
	// refinement list; the atomic pointer makes the lazy fill safe when
	// goroutines share a speech. Duplicate computation under contention is
	// benign — the value is deterministic.
	deltas atomic.Pointer[[]float64]
}

// Clone returns a copy sharing the immutable fragments but with an
// independent refinement slice, so appending to the copy never mutates the
// original. Tree search extends speeches one fragment at a time.
func (s *Speech) Clone() *Speech {
	cp := &Speech{Preamble: s.Preamble, Baseline: s.Baseline}
	cp.Refinements = make([]*Refinement, len(s.Refinements), len(s.Refinements)+1)
	copy(cp.Refinements, s.Refinements)
	return cp
}

// Extend returns a copy of s with r appended.
func (s *Speech) Extend(r *Refinement) *Speech {
	cp := s.Clone()
	cp.Refinements = append(cp.Refinements, r)
	return cp
}

// MainText renders the baseline and refinements (the part subject to the
// character limit; the paper excludes the preamble from it).
func (s *Speech) MainText() string {
	var parts []string
	if s.Baseline != nil {
		parts = append(parts, s.Baseline.Text())
	}
	for _, r := range s.Refinements {
		parts = append(parts, r.Text())
	}
	return strings.Join(parts, " ")
}

// Text renders the complete speech including the preamble.
func (s *Speech) Text() string {
	if s.Preamble == nil {
		return s.MainText()
	}
	main := s.MainText()
	if main == "" {
		return s.Preamble.Text()
	}
	return s.Preamble.Text() + " " + main
}

// LastSentence returns the most recently added fragment's text: the latest
// refinement, else the baseline, else the preamble. It is what the
// pipelined reader speaks after each planning round.
func (s *Speech) LastSentence() string {
	if n := len(s.Refinements); n > 0 {
		return s.Refinements[n-1].Text()
	}
	if s.Baseline != nil {
		return s.Baseline.Text()
	}
	if s.Preamble != nil {
		return s.Preamble.Text()
	}
	return ""
}

// NumFragments counts the sentences subject to the fragment limit
// (baseline plus refinements).
func (s *Speech) NumFragments() int {
	n := len(s.Refinements)
	if s.Baseline != nil {
		n++
	}
	return n
}

// Deltas returns the additive change of each refinement under the paper's
// semantics: refinement percentages are relative to the baseline value
// adjusted by every preceding refinement whose scope subsumes this one.
// The result is independent of any particular aggregate. It is memoized —
// scoring walks every aggregate of every sampled estimate through the same
// deltas — so callers must not mutate the returned slice.
func (s *Speech) Deltas() []float64 {
	if p := s.deltas.Load(); p != nil {
		return *p
	}
	deltas := s.appendDeltas(make([]float64, 0, len(s.Refinements)))
	s.deltas.Store(&deltas)
	return deltas
}

// SetFragments rewrites s in place to the baseline b followed by refs, which
// it keeps, and recomputes deltas already memoized into the storage they
// occupy. It is for a scratch speech that one goroutine points at one
// candidate after another (the search tree's leaf evaluation) without
// allocating a speech each: whoever still holds the previous Deltas slice
// sees it overwritten, and no other goroutine may be reading s.
func (s *Speech) SetFragments(b *Baseline, refs []*Refinement) {
	s.Baseline, s.Refinements = b, refs
	if p := s.deltas.Load(); p != nil {
		*p = s.appendDeltas((*p)[:0])
	}
}

// appendDeltas appends the speech's deltas to dst, which must be empty.
func (s *Speech) appendDeltas(dst []float64) []float64 {
	if s.Baseline == nil {
		return append(dst, make([]float64, len(s.Refinements))...)
	}
	for i, r := range s.Refinements {
		ref := s.Baseline.Value
		for j := 0; j < i; j++ {
			if s.Refinements[j].Subsumes(r) {
				ref += dst[j]
			}
		}
		d := ref * float64(r.Percent) / 100
		if r.Dir == Decrease {
			d = -d
		}
		dst = append(dst, d)
	}
	return dst
}

// Prefs are the user preference constraints on speech output.
type Prefs struct {
	// MaxChars bounds the length of the main speech (without preamble);
	// the paper follows voice-interface guidance of 300 characters.
	MaxChars int
	// MaxFragments bounds the number of refinements.
	MaxFragments int
	// SigDigits is the precision of spoken values (paper: 1).
	SigDigits int
}

// DefaultPrefs mirrors the paper's experimental configuration.
func DefaultPrefs() Prefs {
	return Prefs{MaxChars: 300, MaxFragments: 2, SigDigits: 1}
}

// MainLen returns the character length of MainText without building the
// string or rendering a refinement: validity checks run once per candidate
// speech, and the exhaustive search checks every one.
func (s *Speech) MainLen() int {
	n := 0
	if s.Baseline != nil {
		n = len(s.Baseline.Text())
	}
	for _, r := range s.Refinements {
		if n > 0 {
			n++ // joining space
		}
		n += r.TextLen()
	}
	return n
}

// Valid reports whether the speech respects the preference constraints and
// contains no duplicate refinement scopes (a repeated scope would either
// contradict or restate an earlier sentence).
func (s *Speech) Valid(p Prefs) bool {
	if p.MaxChars > 0 && s.MainLen() > p.MaxChars {
		return false
	}
	if p.MaxFragments > 0 && len(s.Refinements) > p.MaxFragments {
		return false
	}
	for i, r := range s.Refinements {
		for j := i + 1; j < len(s.Refinements); j++ {
			if r.SameScope(s.Refinements[j]) {
				return false
			}
		}
	}
	return true
}

// RoundForSpeech rounds v to the spoken precision of p.
func (p Prefs) RoundForSpeech(v float64) float64 {
	d := p.SigDigits
	if d < 1 {
		d = 1
	}
	return stats.RoundSig(v, d)
}
