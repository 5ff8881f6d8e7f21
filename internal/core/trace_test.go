package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/voice"
)

// windowTotals sums the rows and tree samples of a trace's windows.
func windowTotals(tr Trace) (rows, samples int64) {
	for _, w := range tr.Sentences {
		rows += w.RowsRead
		samples += w.TreeSamples
	}
	return rows, samples
}

func TestTraceRecordsPlannerDecisions(t *testing.T) {
	d, q := flightsQuery(t, 20000, 91)
	cfg := testConfig(30)
	out, err := NewHolistic(d, q, cfg).Vocalize()
	if err != nil {
		t.Fatalf("holistic: %v", err)
	}
	trace := out.Trace
	if trace.TreeNodes == 0 {
		t.Error("tree size not recorded")
	}
	if trace.ScaleEstimate <= 0 {
		t.Error("scale estimate not recorded")
	}
	if len(trace.Sentences) != out.Speech.NumFragments() {
		t.Fatalf("trace sentences = %d, fragments = %d",
			len(trace.Sentences), out.Speech.NumFragments())
	}
	var committed []string
	for i, st := range trace.Sentences {
		if st.Sentence == "" {
			t.Errorf("sentence %d has no text", i)
		}
		if st.Rounds == 0 {
			t.Errorf("sentence %d has no planning rounds", i)
		}
		if st.BestVisits == 0 {
			t.Errorf("sentence %d committed without visits", i)
		}
		if st.Closed != ClosedPlayback && st.Closed != ClosedCap {
			t.Errorf("sentence %d's window closed by %q, want playback or the cap", i, st.Closed)
		}
		committed = append(committed, st.Sentence)
	}
	if got, want := strings.Join(committed, " "), out.Speech.MainText(); got != want {
		t.Errorf("the windows committed %q, the answer says %q", got, want)
	}
	// Every planning window ends in a sentence somebody hears: the
	// attributed windows cover all samples, and all rows but the initial
	// batch; nothing is planned while the last sentence plays.
	totalRows, totalSamples := windowTotals(trace)
	if want := out.RowsRead - int64(cfg.Normalize().InitialRows); totalRows != want {
		t.Errorf("window rows %d, want every row after the initial batch: %d", totalRows, want)
	}
	if totalSamples == 0 || totalSamples != out.TreeSamples {
		t.Errorf("window samples %d vs total %d", totalSamples, out.TreeSamples)
	}
}

func TestTraceRunnerUp(t *testing.T) {
	d, q := flightsQuery(t, 20000, 92)
	out, err := NewHolistic(d, q, testConfig(31)).Vocalize()
	if err != nil {
		t.Fatalf("holistic: %v", err)
	}
	// The first commit (baseline) has several visited competitors.
	first := &out.Trace.Sentences[0]
	if first.RunnerUp() == "" {
		t.Error("baseline commit should have a runner-up")
	}
	if first.RunnerUpReward > first.BestMeanReward {
		t.Error("runner-up cannot out-score the committed sentence")
	}
}

func TestTraceSummary(t *testing.T) {
	d, q := flightsQuery(t, 20000, 93)
	out, err := NewHolistic(d, q, testConfig(32)).Vocalize()
	if err != nil {
		t.Fatalf("holistic: %v", err)
	}
	sum := out.Trace.Summary()
	for _, frag := range []string{"search tree:", "window 1:", "rounds", "closed by", "leader at reward", "runner-up"} {
		if !strings.Contains(sum, frag) {
			t.Errorf("summary missing %q:\n%s", frag, sum)
		}
	}
}

// TestUnmergedTraceHasOneWindow: the unmerged schedule plans in one window,
// closed by its budget, which accounts for every row but the initial batch
// and every tree sample, and commits the whole speech.
func TestUnmergedTraceHasOneWindow(t *testing.T) {
	d, q := flightsQuery(t, 20000, 94)
	cfg := testConfig(33)
	out, err := NewUnmerged(d, q, cfg).Vocalize()
	if err != nil {
		t.Fatalf("unmerged: %v", err)
	}
	if len(out.Trace.Sentences) != 1 {
		t.Fatalf("unmerged answer has %d windows, want 1", len(out.Trace.Sentences))
	}
	w := out.Trace.Sentences[0]
	if w.Closed != ClosedBudget {
		t.Errorf("the window closed by %q, want %q", w.Closed, ClosedBudget)
	}
	if w.Sentence != out.Speech.Text() {
		t.Errorf("the window committed %q, the answer says %q", w.Sentence, out.Speech.Text())
	}
	if out.Trace.TreeNodes == 0 {
		t.Error("tree size not recorded")
	}
	rows, samples := windowTotals(out.Trace)
	if want := out.RowsRead - int64(cfg.Normalize().InitialRows); rows != want {
		t.Errorf("window rows %d, want every row after the initial batch: %d", rows, want)
	}
	if samples == 0 || samples != out.TreeSamples {
		t.Errorf("window samples %d vs total %d", samples, out.TreeSamples)
	}
}

// TestTraceRecordsCancelledWindow: a Holistic answer cancelled mid-window
// records that window, closed by the cancellation and with no sentence, after
// the windows of the sentences it committed.
func TestTraceRecordsCancelledWindow(t *testing.T) {
	d, q := flightsQuery(t, 20000, 51)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := testConfig(1)
	cfg.Clock = &cancelAfterClock{inner: voice.NewSimClock(), after: 400, cancel: cancel}
	out, err := NewHolistic(d, q, cfg).VocalizeContext(ctx)
	requireDegradedValid(t, out, err)
	windows := out.Trace.Sentences
	if len(windows) == 0 {
		t.Fatal("the cancelled answer recorded no window")
	}
	last := windows[len(windows)-1]
	if last.Closed != ClosedCancelled || last.Sentence != "" {
		t.Errorf("the last window closed by %q and committed %q, want %q and nothing", last.Closed, last.Sentence, ClosedCancelled)
	}
	if last.Rounds == 0 {
		t.Error("the cancellation should land inside the window's rounds")
	}
	if got, want := len(windows)-1, out.Speech.NumFragments(); got != want {
		t.Errorf("%d windows before the cancelled one, %d fragments spoken", got, want)
	}
	for i, w := range windows[:len(windows)-1] {
		if w.Closed == ClosedCancelled || w.Sentence == "" {
			t.Errorf("window %d closed by %q with sentence %q before the cancellation", i, w.Closed, w.Sentence)
		}
	}
	rows, samples := windowTotals(out.Trace)
	if want := out.RowsRead - int64(cfg.Normalize().InitialRows); rows != want {
		t.Errorf("window rows %d, want every row after the initial batch: %d", rows, want)
	}
	if samples != out.TreeSamples {
		t.Errorf("window samples %d vs total %d", samples, out.TreeSamples)
	}
}
