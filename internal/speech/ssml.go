package speech

import (
	"fmt"
	"strings"
)

// SSMLOptions tune speech-markup rendering.
type SSMLOptions struct {
	// SentenceBreak is the pause between sentences in milliseconds;
	// conversational agents pace OLAP summaries slower than prose.
	// Zero selects 300 ms.
	SentenceBreakMS int
	// EmphasizeQuantifiers wraps change quantifiers ("50 percent") and
	// baseline values in <emphasis>, the cue listeners anchor on.
	EmphasizeQuantifiers bool
}

// DefaultSSMLOptions match the pacing used in the study interface.
func DefaultSSMLOptions() SSMLOptions {
	return SSMLOptions{SentenceBreakMS: 300, EmphasizeQuantifiers: true}
}

// SSML renders the speech as Speech Synthesis Markup Language for real
// TTS engines: one <s> element per sentence with explicit breaks, and
// optional emphasis on the quantitative payload of each sentence.
func (s *Speech) SSML(opts SSMLOptions) string {
	if opts.SentenceBreakMS <= 0 {
		opts.SentenceBreakMS = 300
	}
	var b strings.Builder
	b.WriteString("<speak>")
	first := true
	emit := func(sentence string) {
		if sentence == "" {
			return
		}
		if !first {
			fmt.Fprintf(&b, `<break time="%dms"/>`, opts.SentenceBreakMS)
		}
		first = false
		b.WriteString("<s>")
		b.WriteString(escapeSSML(sentence))
		b.WriteString("</s>")
	}
	if s.Preamble != nil {
		for _, sentence := range splitSentences(s.Preamble.Text()) {
			emit(sentence)
		}
	}
	if s.Baseline != nil {
		sentence := escapeSSML(s.Baseline.Text())
		if opts.EmphasizeQuantifiers {
			value := escapeSSML(FormatValue(s.Baseline.Value, s.Baseline.Format))
			sentence = strings.Replace(sentence, value,
				"<emphasis>"+value+"</emphasis>", 1)
		}
		if !first {
			fmt.Fprintf(&b, `<break time="%dms"/>`, opts.SentenceBreakMS)
		}
		first = false
		b.WriteString("<s>")
		b.WriteString(sentence)
		b.WriteString("</s>")
	}
	for _, r := range s.Refinements {
		sentence := escapeSSML(r.Text())
		if opts.EmphasizeQuantifiers {
			q := fmt.Sprintf("%d percent", r.Percent)
			sentence = strings.Replace(sentence, q,
				"<emphasis>"+q+"</emphasis>", 1)
		}
		if !first {
			fmt.Fprintf(&b, `<break time="%dms"/>`, opts.SentenceBreakMS)
		}
		first = false
		b.WriteString("<s>")
		b.WriteString(sentence)
		b.WriteString("</s>")
	}
	b.WriteString("</speak>")
	return b.String()
}

// ssmlEscaper is built once: a Replacer compiles a 6 KB lookup table on
// first use and is safe for concurrent use afterwards.
var ssmlEscaper = strings.NewReplacer(
	"&", "&amp;",
	"<", "&lt;",
	">", "&gt;",
	`"`, "&quot;",
	"'", "&apos;",
)

// escapeSSML escapes XML-special characters in spoken text.
func escapeSSML(s string) string { return ssmlEscaper.Replace(s) }
