package core

import (
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/encode"
	"repro/internal/speech"
)

// plannedAnswer plans golden query i at seed with a trace and returns the
// answer with the main text its committed sentences add up to.
func plannedAnswer(t *testing.T, i int, seed int64) (*Output, string) {
	t.Helper()
	d, err := goldenFlights()
	if err != nil {
		t.Fatalf("Flights: %v", err)
	}
	qc := goldenQueries[i]
	cfg := daemonTestConfig(seed)
	cfg.Trace = &Trace{}
	out, err := NewHolistic(d, goldenQuery(t, d, qc.airport, qc.date, qc.airline, qc.filter), cfg).Vocalize()
	if err != nil {
		t.Fatalf("%s seed %d: %v", qc.name, seed, err)
	}
	if len(out.Speech.Refinements) == 0 {
		t.Fatalf("%s seed %d has no refinements: %q", qc.name, seed, out.Text())
	}
	var sentences []string
	for _, s := range cfg.Trace.Sentences {
		sentences = append(sentences, s.Sentence)
	}
	return out, strings.Join(sentences, " ")
}

// answerSnapshot is what a listener or a client reads of a finished answer.
type answerSnapshot struct {
	Text, SSML  string
	Encoded     encode.Speech
	Refinements []speech.Refinement
	ScopeWords  [][]uint64
}

// snapshotAnswer copies what sp says, and fails t if a refinement's fields
// no longer say what its text does.
func snapshotAnswer(t *testing.T, sp *speech.Speech) answerSnapshot {
	t.Helper()
	s := answerSnapshot{Text: sp.Text(), SSML: sp.SSML(speech.DefaultSSMLOptions()), Encoded: encode.EncodeSpeech(sp)}
	for _, r := range sp.Refinements {
		fresh := &speech.Refinement{Preds: r.Preds, Dir: r.Dir, Percent: r.Percent}
		if fresh.Text() != r.Text() || r.Scope == nil || r.Scope.Size() != r.ScopeSize {
			t.Errorf("refinement %q has predicates %v, %v %d percent, scope size %d", r.Text(), r.Preds, r.Dir, r.Percent, r.ScopeSize)
		}
		cp := *r
		cp.Preds = slices.Clone(r.Preds)
		s.Refinements = append(s.Refinements, cp)
		s.ScopeWords = append(s.ScopeWords, slices.Clone(r.Scope.Words()))
	}
	return s
}

// TestFinishedAnswerSharesNothing plans a state-by-month answer, then 35
// answers of the other golden shapes on two goroutines, whose generators
// build their menus in the storage the first answer's released, and holds
// the first answer to everything it said before: text, SSML, the encoded
// speech and every field of every refinement. The answer's text must also be
// the sentences the planner committed.
func TestFinishedAnswerSharesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("36 answers at daemon budgets")
	}
	const first = 3 // state x month
	out, committed := plannedAnswer(t, first, 1)
	if got := out.Speech.MainText(); got != committed {
		t.Fatalf("the answer says %q, the planner committed %q", got, committed)
	}
	before := snapshotAnswer(t, out.Speech)
	var jobs [][2]int64
	for i := range goldenQueries {
		for seed := int64(2); seed <= 6 && i != first; seed++ {
			jobs = append(jobs, [2]int64{int64(i), seed})
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := g; j < len(jobs); j += 2 {
				plannedAnswer(t, int(jobs[j][0]), jobs[j][1])
			}
		}()
	}
	wg.Wait()
	if after := snapshotAnswer(t, out.Speech); !reflect.DeepEqual(after, before) {
		t.Errorf("a finished answer changed under %d later answers:\n got %+v\nwant %+v", len(jobs), after, before)
	}
}

// TestFinishedAnswerRendersConcurrently renders one finished answer's text
// and SSML on 8 goroutines at once, as cache hits do. The answer's
// refinements must have their text rendered before it leaves the planner:
// one rendered on first use is written while the others read it, which the
// race detector reports. Not skipped under -short, so the race leg runs it.
func TestFinishedAnswerRendersConcurrently(t *testing.T) {
	out, committed := plannedAnswer(t, 1, 1) // region x season
	want := out.Speech.Preamble.Text() + " " + committed
	const readers = 8
	ssml := make([]string, readers)
	var wg sync.WaitGroup
	for g := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 20 {
				if got := out.Text(); got != want {
					t.Errorf("reader %d: %q, want %q", g, got, want)
					return
				}
				ssml[g] = out.Speech.SSML(speech.DefaultSSMLOptions())
			}
		}()
	}
	wg.Wait()
	for g, s := range ssml {
		if s != ssml[0] || !strings.HasPrefix(s, "<speak>") {
			t.Errorf("reader %d rendered %q, reader 0 %q", g, s, ssml[0])
		}
	}
}
