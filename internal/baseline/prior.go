// Package baseline implements the comparison system of the paper's user
// study: the greedy relational-data vocalization algorithm of Trummer,
// Zhu and Bryan (VLDB 2017), labeled "Prior" in all experiment output.
// Unlike the holistic approach it (1) fully evaluates the query before
// speaking, (2) places no limit on speech length, and (3) enumerates every
// result aggregate, greedily merging runs of equal rounded values — the
// "bullet point" style some study participants liked and most found far
// too long on multi-dimensional results (Table 9's worst case exceeds
// fifty thousand characters).
package baseline

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/dimension"
	"repro/internal/olap"
	"repro/internal/speech"
	"repro/internal/stats"
)

// Config tunes the prior vocalizer.
type Config struct {
	// Format renders values.
	Format speech.ValueFormat
}

// sigDigits is the spoken precision, 1 as in the paper's studies: values
// that round to the same single digit merge into one phrase.
const sigDigits = 1

// Output reports a prior-baseline vocalization. The prior grammar is not
// the holistic speech grammar, so the output carries plain text.
type Output struct {
	// Text is the complete spoken text.
	Text string
	// Latency is the time until voice output could start (the prior
	// system evaluates the query fully first).
	Latency time.Duration
	// Sentences is the number of generated sentences.
	Sentences int
	// Truncated reports that context cancellation cut the enumeration
	// short; the text still ends at a sentence boundary and at least one
	// sentence is spoken.
	Truncated bool
}

// Prior is the 2017 greedy vocalizer adapted to OLAP results.
type Prior struct {
	dataset *olap.Dataset
	query   olap.Query
	cfg     Config
}

// NewPrior returns a prior-baseline vocalizer for the query.
func NewPrior(d *olap.Dataset, q olap.Query, cfg Config) *Prior {
	return &Prior{dataset: d, query: q, cfg: cfg}
}

// Vocalize evaluates the query exactly and renders the full enumeration.
func (p *Prior) Vocalize() (*Output, error) {
	return p.VocalizeContext(context.Background())
}

// VocalizeContext is Vocalize bound to ctx. The enumeration — the part
// whose length explodes on multi-dimensional results — checks the context
// between sentences and truncates once it expires, always keeping at
// least the first sentence so the caller has something to speak; the
// Output is flagged Truncated then. The exact evaluation itself is not
// interruptible. Latency is measured in real time.
func (p *Prior) VocalizeContext(ctx context.Context) (*Output, error) {
	start := time.Now()
	result, err := olap.Evaluate(p.dataset, p.query)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	text, sentences, truncated := p.render(ctx, result)
	return &Output{
		Text:      text,
		Latency:   time.Since(start),
		Sentences: sentences,
		Truncated: truncated,
	}, nil
}

// render enumerates the result: one sentence per combination of leading
// dimension members, listing the trailing dimension's values (greedily
// merged when equal, the m_S = m_C = 1 greedy setting of the prior paper).
// It stops at a sentence boundary — but never before the first sentence —
// once ctx expires, reporting the truncation.
func (p *Prior) render(ctx context.Context, result *olap.Result) (string, int, bool) {
	space := result.Space()
	q := space.Query()
	aggName := q.ColDescription
	if aggName == "" {
		aggName = q.Fct.String() + " " + q.Col
	}
	nd := space.NumDims()

	truncated := false
	var sentences []string
	if nd == 1 {
		sentences = append(sentences, p.renderRun(aggName, "", space.Members(0), func(i int) float64 {
			return result.Value(space.IndexOf([]*dimension.Member{space.Members(0)[i]}))
		}))
	} else {
		// Iterate leading coordinates (all dims but the last).
		lead := make([]int, nd-1)
		for {
			if len(sentences) > 0 && ctx.Err() != nil {
				truncated = true
				break
			}
			prefix := make([]*dimension.Member, nd-1)
			var prefixNames []string
			for d := 0; d < nd-1; d++ {
				prefix[d] = space.Members(d)[lead[d]]
				prefixNames = append(prefixNames, prefix[d].Name)
			}
			last := space.Members(nd - 1)
			scope := "for " + strings.Join(prefixNames, " and ") + ", "
			sentences = append(sentences, p.renderRun(aggName, scope, last, func(i int) float64 {
				coords := append(append([]*dimension.Member{}, prefix...), last[i])
				return result.Value(space.IndexOf(coords))
			}))
			// Advance the mixed-radix counter.
			d := nd - 2
			for d >= 0 {
				lead[d]++
				if lead[d] < len(space.Members(d)) {
					break
				}
				lead[d] = 0
				d--
			}
			if d < 0 {
				break
			}
		}
	}
	return strings.Join(sentences, " "), len(sentences), truncated
}

// renderRun renders one sentence for a run of trailing-dimension members.
func (p *Prior) renderRun(aggName, scope string, members []*dimension.Member, value func(i int) float64) string {
	type group struct {
		names []string
		text  string
	}
	var groups []group
	i := 0
	for i < len(members) {
		v := value(i)
		names := []string{members[i].Name}
		j := i + 1
		for j < len(members) && sameRounded(v, value(j), sigDigits) {
			names = append(names, members[j].Name)
			j++
		}
		groups = append(groups, group{names: names, text: p.formatValue(v)})
		i = j
	}
	var parts []string
	for _, g := range groups {
		parts = append(parts, fmt.Sprintf("%s for %s", g.text, joinNames(g.names)))
	}
	sentence := fmt.Sprintf("%sthe %s is %s.", scope, aggName, joinNames(parts))
	// Capitalize the first letter.
	return strings.ToUpper(sentence[:1]) + sentence[1:]
}

// formatValue renders a value or "unknown" for empty aggregates.
func (p *Prior) formatValue(v float64) string {
	if math.IsNaN(v) {
		return "unknown"
	}
	return speech.FormatValue(v, p.cfg.Format)
}

// sameRounded reports whether two values round to the same spoken value
// (NaN equals only NaN).
func sameRounded(a, b float64, digits int) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return stats.RoundSig(a, digits) == stats.RoundSig(b, digits)
}

// joinNames joins phrases with commas and a final "and".
func joinNames(names []string) string {
	switch len(names) {
	case 0:
		return ""
	case 1:
		return names[0]
	case 2:
		return names[0] + " and " + names[1]
	default:
		return strings.Join(names[:len(names)-1], ", ") + " and " + names[len(names)-1]
	}
}
