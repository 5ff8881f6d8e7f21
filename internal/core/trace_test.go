package core

import (
	"bytes"
	"strings"
	"testing"
)

func TestTraceRecordsPlannerDecisions(t *testing.T) {
	d, q := flightsQuery(t, 20000, 91)
	cfg := testConfig(30)
	trace := &Trace{}
	cfg.Trace = trace
	out, err := NewHolistic(d, q, cfg).Vocalize()
	if err != nil {
		t.Fatalf("holistic: %v", err)
	}
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
	var totalRows, totalSamples int64
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
		totalRows += st.RowsRead
		totalSamples += st.TreeSamples
	}
	// Every planning window ends in a sentence somebody hears: the
	// attributed windows cover all samples, and all rows but the initial
	// batch; nothing is planned while the last sentence plays.
	if want := out.RowsRead - int64(cfg.Normalize().InitialRows); totalRows != want {
		t.Errorf("window rows %d, want every row after the initial batch: %d", totalRows, want)
	}
	if totalSamples == 0 || totalSamples != out.TreeSamples {
		t.Errorf("window samples %d vs total %d", totalSamples, out.TreeSamples)
	}
}

func TestTraceRunnerUp(t *testing.T) {
	d, q := flightsQuery(t, 20000, 92)
	cfg := testConfig(31)
	trace := &Trace{}
	cfg.Trace = trace
	if _, err := NewHolistic(d, q, cfg).Vocalize(); err != nil {
		t.Fatalf("holistic: %v", err)
	}
	// The first commit (baseline) has several visited competitors.
	first := trace.Sentences[0]
	if first.RunnerUp == "" {
		t.Error("baseline commit should have a runner-up")
	}
	if first.RunnerUpReward > first.BestMeanReward {
		t.Error("runner-up cannot out-score the committed sentence")
	}
}

func TestTraceSummary(t *testing.T) {
	d, q := flightsQuery(t, 20000, 93)
	cfg := testConfig(32)
	trace := &Trace{}
	cfg.Trace = trace
	if _, err := NewHolistic(d, q, cfg).Vocalize(); err != nil {
		t.Fatalf("holistic: %v", err)
	}
	sum := trace.Summary()
	for _, frag := range []string{"search tree:", "sentence 1:", "window:", "committed at reward"} {
		if !strings.Contains(sum, frag) {
			t.Errorf("summary missing %q:\n%s", frag, sum)
		}
	}
	var buf bytes.Buffer
	n, err := trace.WriteTo(&buf)
	if err != nil || n == 0 {
		t.Errorf("WriteTo = %d, %v", n, err)
	}
	if buf.String() != sum {
		t.Error("WriteTo should emit the summary")
	}
}

func TestNoTraceByDefault(t *testing.T) {
	d, q := flightsQuery(t, 10000, 94)
	out, err := NewHolistic(d, q, testConfig(33)).Vocalize()
	if err != nil {
		t.Fatalf("holistic: %v", err)
	}
	if out.Speech.Baseline == nil {
		t.Error("vocalization without trace should still work")
	}
}
