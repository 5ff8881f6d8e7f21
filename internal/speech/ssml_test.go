package speech

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/dimension"
)

func ssmlSpeech(t *testing.T) *Speech {
	t.Helper()
	airport, _ := testDims(t)
	ne := airport.FindMember("the North East")
	return &Speech{
		Preamble: &Preamble{
			ScopePhrases: []string{"flights starting from any airport"},
			LevelNames:   []string{"region"},
		},
		Baseline: &Baseline{Value: 0.02, AggName: "average cancellation probability", Format: PercentFormat},
		Refinements: []*Refinement{
			{Preds: []*dimension.Member{ne}, Dir: Increase, Percent: 50},
		},
	}
}

func TestSSMLStructure(t *testing.T) {
	sp := ssmlSpeech(t)
	out := sp.SSML(DefaultSSMLOptions())
	if !strings.HasPrefix(out, "<speak>") || !strings.HasSuffix(out, "</speak>") {
		t.Errorf("missing speak envelope: %s", out)
	}
	// Preamble renders as two sentences, plus baseline and one refinement.
	if got := strings.Count(out, "<s>"); got != 4 {
		t.Errorf("sentence elements = %d, want 4:\n%s", got, out)
	}
	// Breaks between consecutive sentences only.
	if got := strings.Count(out, "<break"); got != 3 {
		t.Errorf("breaks = %d, want 3:\n%s", got, out)
	}
	if !strings.Contains(out, `time="300ms"`) {
		t.Error("default break duration missing")
	}
}

func TestSSMLEmphasis(t *testing.T) {
	sp := ssmlSpeech(t)
	out := sp.SSML(DefaultSSMLOptions())
	if !strings.Contains(out, "<emphasis>two percent</emphasis>") {
		t.Errorf("baseline value should be emphasized:\n%s", out)
	}
	if !strings.Contains(out, "<emphasis>50 percent</emphasis>") {
		t.Errorf("quantifier should be emphasized:\n%s", out)
	}
	plain := sp.SSML(SSMLOptions{SentenceBreakMS: 100})
	if strings.Contains(plain, "<emphasis>") {
		t.Error("emphasis disabled should emit none")
	}
	if !strings.Contains(plain, `time="100ms"`) {
		t.Error("custom break duration missing")
	}
}

func TestSSMLEmptySpeech(t *testing.T) {
	empty := &Speech{}
	if got := empty.SSML(DefaultSSMLOptions()); got != "<speak></speak>" {
		t.Errorf("empty speech SSML = %q", got)
	}
}

func TestSSMLEscaping(t *testing.T) {
	sp := &Speech{
		Baseline: &Baseline{Value: 5, AggName: `average of "X & Y" <scores>`, Format: PlainFormat},
	}
	out := sp.SSML(SSMLOptions{})
	if strings.Contains(out, `"X & Y" <scores>`) {
		t.Errorf("special characters must be escaped:\n%s", out)
	}
	for _, frag := range []string{"&quot;", "&amp;", "&lt;scores&gt;"} {
		if !strings.Contains(out, frag) {
			t.Errorf("escaped form %q missing:\n%s", frag, out)
		}
	}
}

func TestEscapeSSML(t *testing.T) {
	if got := escapeSSML(`a<b>&"c"'d'`); got != "a&lt;b&gt;&amp;&quot;c&quot;&apos;d&apos;" {
		t.Errorf("escape = %q", got)
	}
}

// threeSentenceSpeech is a baseline with two refinements, the shape the
// daemon renders on every answer.
func threeSentenceSpeech(tb testing.TB) *Speech {
	tb.Helper()
	airport := dimension.MustNewHierarchy("start airport", "city", "flights starting from", "any airport",
		[]string{"region", "city"})
	airport.MustAddPath("the North East", "Boston")
	airport.MustAddPath("the Midwest", "Chicago")
	return &Speech{
		Baseline: &Baseline{Value: 0.02, AggName: "average cancellation probability", Format: PercentFormat},
		Refinements: []*Refinement{
			{Preds: []*dimension.Member{airport.FindMember("the North East")}, Dir: Increase, Percent: 50},
			{Preds: []*dimension.Member{airport.FindMember("the Midwest")}, Dir: Decrease, Percent: 20},
		},
	}
}

var ssmlSink string

// TestSSMLAllocs bounds what rendering one answer's SSML costs: the daemon
// renders it once per planned answer, and cache hits and coalesced replies
// reuse that string. A Replacer built per escaped string used to put about
// 36 KiB behind each call.
func TestSSMLAllocs(t *testing.T) {
	sp := threeSentenceSpeech(t)
	opts := DefaultSSMLOptions()
	ssmlSink = sp.SSML(opts)
	const calls = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		ssmlSink = sp.SSML(opts)
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / calls; perCall > 4<<10 {
		t.Errorf("SSML allocates %d bytes per call, want at most 4 KiB", perCall)
	}
}

func BenchmarkSSML(b *testing.B) {
	sp := threeSentenceSpeech(b)
	opts := DefaultSSMLOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ssmlSink = sp.SSML(opts)
	}
}
