package speech

import (
	"errors"
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

// ParsedSpeech is the structural decomposition of a rendered speech,
// recovered by Parse. It proves grammar conformance (Figure 1) and powers
// round-trip tests: every speech the system renders must parse back into
// an equivalent structure.
type ParsedSpeech struct {
	// ScopePhrases are the preamble's per-dimension phrases.
	ScopePhrases []string
	// LevelNames are the preamble's breakdown level names.
	LevelNames []string
	// BaselineValue is the spoken baseline value phrase ("one percent").
	BaselineValue string
	// AggName is the spoken aggregate name.
	AggName string
	// Refinements are the parsed refinement statements.
	Refinements []ParsedRefinement
}

// ParsedRefinement is one parsed refinement sentence.
type ParsedRefinement struct {
	// Dir is the change direction.
	Dir Direction
	// Percent is the quantifier.
	Percent int
	// PredPhrases are the rendered predicate phrases
	// ("flights starting from the North East").
	PredPhrases []string
}

// Parser validates speech text against the grammar of Figure 1.
type Parser struct {
	// Strict requires the full structure (preamble and baseline); relaxed
	// mode accepts main speeches without a preamble.
	Strict bool
}

var (
	// ErrNoPreamble reports a missing "Considering …" opener.
	ErrNoPreamble = errors.New("speech: missing preamble")
	// ErrNoBaseline reports a missing "<value> is the <aggregate>." claim.
	ErrNoBaseline = errors.New("speech: missing baseline statement")
	// ErrBadRefinement reports a malformed refinement sentence.
	ErrBadRefinement = errors.New("speech: malformed refinement")
)

var (
	preambleRe   = regexp.MustCompile(`^Considering (.+?)\.(?: Results are broken down by (.+?)\.)?$`)
	baselineRe   = regexp.MustCompile(`^Around (.+?) is the (.+?)\.$`)
	refinementRe = regexp.MustCompile(`^Values (increase|decrease) by (\d+) percent for (.+?)\.$`)
)

// Parse decomposes text into its grammar constituents. It accepts exactly
// the language produced by Speech.Text (and MainText when Strict is
// false), rejecting anything else.
func (p Parser) Parse(text string) (*ParsedSpeech, error) {
	sentences := splitSentences(text)
	if len(sentences) == 0 {
		return nil, fmt.Errorf("%w: empty text", ErrNoPreamble)
	}
	out := &ParsedSpeech{}
	i := 0

	// Preamble: one regex over the first one or two sentences, since the
	// optional breakdown clause is its own sentence.
	if strings.HasPrefix(sentences[0], "Considering ") {
		pre := sentences[0]
		if len(sentences) > 1 && strings.HasPrefix(sentences[1], "Results are broken down by ") {
			pre += " " + sentences[1]
			i = 2
		} else {
			i = 1
		}
		m := preambleRe.FindStringSubmatch(pre)
		if m == nil {
			return nil, fmt.Errorf("%w: %q", ErrNoPreamble, pre)
		}
		out.ScopePhrases = splitConjunction(m[1])
		if m[2] != "" {
			out.LevelNames = splitConjunction(m[2])
		}
	} else if p.Strict {
		return nil, fmt.Errorf("%w: text starts with %q", ErrNoPreamble, sentences[0])
	}

	// Baseline.
	if i >= len(sentences) {
		if p.Strict {
			return nil, ErrNoBaseline
		}
		return out, nil
	}
	if m := baselineRe.FindStringSubmatch(sentences[i]); m != nil {
		out.BaselineValue = m[1]
		out.AggName = m[2]
		i++
	} else if p.Strict {
		return nil, fmt.Errorf("%w: %q", ErrNoBaseline, sentences[i])
	}

	// Refinements.
	for ; i < len(sentences); i++ {
		m := refinementRe.FindStringSubmatch(sentences[i])
		if m == nil {
			return nil, fmt.Errorf("%w: %q", ErrBadRefinement, sentences[i])
		}
		dir := Increase
		if m[1] == "decrease" {
			dir = Decrease
		}
		pct, err := strconv.Atoi(m[2])
		if err != nil {
			return nil, fmt.Errorf("%w: quantifier %q", ErrBadRefinement, m[2])
		}
		out.Refinements = append(out.Refinements, ParsedRefinement{
			Dir:         dir,
			Percent:     pct,
			PredPhrases: splitConjunction(m[3]),
		})
	}
	return out, nil
}

// Conforms reports whether text is a sentence-for-sentence member of the
// speech grammar.
func (p Parser) Conforms(text string) bool {
	_, err := p.Parse(text)
	return err == nil
}

// splitSentences splits on sentence boundaries (". " with the final
// period retained per sentence).
func splitSentences(text string) []string {
	text = strings.TrimSpace(text)
	if text == "" {
		return nil
	}
	parts := strings.SplitAfter(text, ". ")
	out := make([]string, 0, len(parts))
	for _, part := range parts {
		s := strings.TrimSpace(part)
		if s != "" {
			out = append(out, s)
		}
	}
	return out
}

// splitConjunction splits "a, b and c" into its items. Phrases themselves
// never contain ", " or " and " in the grammar's vocabulary templates.
func splitConjunction(s string) []string {
	var out []string
	for _, chunk := range strings.Split(s, ", ") {
		for _, item := range strings.Split(chunk, " and ") {
			item = strings.TrimSpace(item)
			if item != "" {
				out = append(out, item)
			}
		}
	}
	return out
}
