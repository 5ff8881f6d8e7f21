// Package encode provides a JSON-stable representation of speeches.
// Members are referenced by (dimension, level, name) triples and
// re-resolved against a dataset on decode, so payloads survive process
// boundaries: the web API returns structured speeches.
package encode

import (
	"fmt"

	"repro/internal/dimension"
	"repro/internal/olap"
	"repro/internal/speech"
)

// MemberRef references a dimension member by position.
type MemberRef struct {
	Dimension string `json:"dimension"`
	Level     int    `json:"level"`
	Name      string `json:"name"`
}

// memberRef encodes a member.
func memberRef(m *dimension.Member) MemberRef {
	return MemberRef{Dimension: m.Hierarchy().Name, Level: m.Level, Name: m.Name}
}

// resolveMember decodes a member reference against a dataset.
func resolveMember(d *olap.Dataset, ref MemberRef) (*dimension.Member, error) {
	h := d.HierarchyByName(ref.Dimension)
	if h == nil {
		return nil, fmt.Errorf("encode: unknown dimension %q", ref.Dimension)
	}
	for _, m := range h.MembersAt(ref.Level) {
		if m.Name == ref.Name {
			return m, nil
		}
	}
	return nil, fmt.Errorf("encode: no member %q at level %d of %q", ref.Name, ref.Level, ref.Dimension)
}

// Refinement is the JSON form of speech.Refinement.
type Refinement struct {
	Direction string      `json:"direction"`
	Percent   int         `json:"percent"`
	Preds     []MemberRef `json:"preds"`
}

// Baseline is the JSON form of speech.Baseline.
type Baseline struct {
	Value   float64 `json:"value"`
	AggName string  `json:"aggName"`
	Format  string  `json:"format"`
}

// Preamble is the JSON form of speech.Preamble.
type Preamble struct {
	ScopePhrases []string `json:"scopePhrases"`
	LevelNames   []string `json:"levelNames,omitempty"`
}

// Speech is the JSON form of speech.Speech.
type Speech struct {
	Preamble    *Preamble    `json:"preamble,omitempty"`
	Baseline    *Baseline    `json:"baseline,omitempty"`
	Refinements []Refinement `json:"refinements,omitempty"`
	Text        string       `json:"text"`
}

// formatName maps a value format to its wire name.
func formatName(f speech.ValueFormat) string { return f.String() }

// parseFormat maps a wire name back to a value format.
func parseFormat(name string) (speech.ValueFormat, error) {
	switch name {
	case "percent":
		return speech.PercentFormat, nil
	case "thousands":
		return speech.ThousandsFormat, nil
	case "plain", "":
		return speech.PlainFormat, nil
	case "count":
		return speech.CountFormat, nil
	default:
		return 0, fmt.Errorf("encode: unknown value format %q", name)
	}
}

// EncodeSpeech converts a speech to its JSON form (text included for
// convenience; structure is authoritative).
func EncodeSpeech(s *speech.Speech) Speech {
	out := Speech{Text: s.Text()}
	if s.Preamble != nil {
		out.Preamble = &Preamble{
			ScopePhrases: s.Preamble.ScopePhrases,
			LevelNames:   s.Preamble.LevelNames,
		}
	}
	if s.Baseline != nil {
		out.Baseline = &Baseline{
			Value:   s.Baseline.Value,
			AggName: s.Baseline.AggName,
			Format:  formatName(s.Baseline.Format),
		}
	}
	for _, r := range s.Refinements {
		jr := Refinement{Direction: r.Dir.String(), Percent: r.Percent}
		for _, p := range r.Preds {
			jr.Preds = append(jr.Preds, memberRef(p))
		}
		out.Refinements = append(out.Refinements, jr)
	}
	return out
}

// DecodeSpeech resolves a JSON speech against a dataset. Refinement scope
// sizes are left zero; the belief model recomputes them on demand.
func DecodeSpeech(d *olap.Dataset, j Speech) (*speech.Speech, error) {
	out := &speech.Speech{}
	if j.Preamble != nil {
		out.Preamble = &speech.Preamble{
			ScopePhrases: j.Preamble.ScopePhrases,
			LevelNames:   j.Preamble.LevelNames,
		}
	}
	if j.Baseline != nil {
		format, err := parseFormat(j.Baseline.Format)
		if err != nil {
			return nil, err
		}
		out.Baseline = &speech.Baseline{
			Value:   j.Baseline.Value,
			AggName: j.Baseline.AggName,
			Format:  format,
		}
	}
	for _, jr := range j.Refinements {
		r := &speech.Refinement{Percent: jr.Percent}
		switch jr.Direction {
		case "increase", "":
			r.Dir = speech.Increase
		case "decrease":
			r.Dir = speech.Decrease
		default:
			return nil, fmt.Errorf("encode: unknown direction %q", jr.Direction)
		}
		for _, ref := range jr.Preds {
			m, err := resolveMember(d, ref)
			if err != nil {
				return nil, err
			}
			r.Preds = append(r.Preds, m)
		}
		out.Refinements = append(out.Refinements, r)
	}
	return out, nil
}
