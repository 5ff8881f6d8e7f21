package voice

import (
	"testing"
	"time"
)

func TestSpeakingTime(t *testing.T) {
	s := NewSpeaker(NewSimClock(), 15)
	if got := s.SpeakingTime("123456789012345"); got != time.Second {
		t.Errorf("15 chars at 15 cps = %v, want 1s", got)
	}
	if got := s.SpeakingTime(""); got != 0 {
		t.Errorf("empty text = %v, want 0", got)
	}
}

func TestDefaultRate(t *testing.T) {
	s := NewSpeaker(NewSimClock(), 0)
	if s.SpeakingTime("xxx") == 0 {
		t.Error("default rate should produce nonzero duration")
	}
	neg := NewSpeaker(NewSimClock(), -3)
	if neg.SpeakingTime("xxx") <= 0 {
		t.Error("negative rate should fall back to default")
	}
}

func TestStartAndIsPlaying(t *testing.T) {
	clock := NewSimClock()
	s := NewSpeaker(clock, 10)
	if s.PlayingAt(clock.Now()) {
		t.Error("fresh speaker should be idle")
	}
	s.Start("1234567890") // 1 second at 10 cps
	if !s.PlayingAt(clock.Now()) {
		t.Error("should be playing right after Start")
	}
	clock.Advance(500 * time.Millisecond)
	if !s.PlayingAt(clock.Now()) {
		t.Error("should still be playing at 0.5s")
	}
	clock.Advance(500 * time.Millisecond)
	if s.PlayingAt(clock.Now()) {
		t.Error("should be idle at exactly 1s")
	}
}

func TestStartQueuesWhileBusy(t *testing.T) {
	clock := NewSimClock()
	s := NewSpeaker(clock, 10)
	s.Start("1234567890") // plays [0, 1s)
	s.Start("12345")      // queued [1s, 1.5s)
	clock.Advance(1200 * time.Millisecond)
	if !s.PlayingAt(clock.Now()) {
		t.Error("queued utterance should still be playing at 1.2s")
	}
	clock.Advance(300 * time.Millisecond)
	if s.PlayingAt(clock.Now()) {
		t.Error("queue should drain at 1.5s")
	}
	tr := s.Transcript()
	if len(tr) != 2 {
		t.Fatalf("transcript length = %d, want 2", len(tr))
	}
	if !tr[1].Start.Equal(tr[0].End) {
		t.Error("second utterance should start when the first ends")
	}
}

func TestTranscriptAndTotals(t *testing.T) {
	clock := NewSimClock()
	s := NewSpeaker(clock, 10)
	s.Start("aaaaaaaaaa")      // 1s
	clock.Advance(time.Second) // drain
	s.Start("bbbbb")           // 0.5s
	clock.Advance(time.Second)
	tr := s.Transcript()
	if len(tr) != 2 || tr[0].Text != "aaaaaaaaaa" || tr[1].Text != "bbbbb" {
		t.Fatalf("transcript = %+v", tr)
	}
	if d0, d1 := tr[0].End.Sub(tr[0].Start), tr[1].End.Sub(tr[1].Start); d0 != time.Second || d1 != 500*time.Millisecond {
		t.Errorf("utterance durations = %v, %v, want 1s, 0.5s", d0, d1)
	}
	// Transcript is a copy: mutations must not leak.
	tr[0].Text = "mutated"
	if s.Transcript()[0].Text != "aaaaaaaaaa" {
		t.Error("Transcript should return a copy")
	}
}

func TestRealClock(t *testing.T) {
	before := time.Now()
	got := RealClock{}.Now()
	after := time.Now()
	if got.Before(before) || got.After(after) {
		t.Error("RealClock should report current time")
	}
}

func TestSimClockAdvance(t *testing.T) {
	c := NewSimClock()
	t0 := c.Now()
	c.Advance(3 * time.Second)
	if got := c.Now().Sub(t0); got != 3*time.Second {
		t.Errorf("advance = %v, want 3s", got)
	}
}

func TestSpeakerConcurrentAccess(t *testing.T) {
	clock := NewSimClock()
	s := NewSpeaker(clock, 100)
	done := make(chan struct{})
	go func() {
		for i := 0; i < 1000; i++ {
			s.Start("x")
			s.PlayingAt(clock.Now())
		}
		close(done)
	}()
	for i := 0; i < 1000; i++ {
		clock.Advance(time.Millisecond)
		s.Transcript()
	}
	<-done
	if len(s.Transcript()) != 1000 {
		t.Errorf("transcript = %d utterances, want 1000", len(s.Transcript()))
	}
}
