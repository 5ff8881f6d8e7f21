// Package voice simulates the asynchronous text-to-speech device the
// holistic algorithm pipelines against. The paper's implementation used a
// browser TTS API; the algorithm only ever observes two operations —
// VO.Start(text), which returns immediately, and VO.IsPlaying — so playback
// is modeled as text length divided by a speaking rate on an injectable
// clock. A manual clock makes pipelining deterministic in tests and
// benchmarks; the real clock drives interactive sessions.
package voice

import (
	"sync"
	"time"
)

// Clock abstracts time for the speaker and the planner. Advance charges
// simulated work to the clock: a simulated clock moves forward by d, and
// the real one ignores it, because real work takes real time.
type Clock interface {
	Now() time.Time
	Advance(d time.Duration)
}

// RealClock reads the system time.
type RealClock struct{}

// Now implements Clock.
func (RealClock) Now() time.Time { return time.Now() }

// Advance implements Clock; it does nothing.
func (RealClock) Advance(time.Duration) {}

// SimClock is a manually advanced clock for deterministic tests.
type SimClock struct {
	mu sync.Mutex
	t  time.Time
}

// NewSimClock returns a clock starting at an arbitrary fixed epoch.
func NewSimClock() *SimClock {
	return &SimClock{t: time.Date(2019, 6, 30, 9, 0, 0, 0, time.UTC)}
}

// Now implements Clock.
func (c *SimClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// Advance moves the clock forward by d.
func (c *SimClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// DefaultCharsPerSecond approximates conversational TTS speed: about 180
// words per minute at 5 characters per word.
const DefaultCharsPerSecond = 15.0

// Utterance records one spoken text with its playback interval.
type Utterance struct {
	Text  string
	Start time.Time
	End   time.Time
}

// Speaker is the simulated voice output device.
type Speaker struct {
	clock Clock
	rate  float64

	mu         sync.Mutex
	busyUntil  time.Time
	transcript []Utterance
}

// NewSpeaker returns a speaker on the given clock. A non-positive rate
// falls back to DefaultCharsPerSecond.
func NewSpeaker(clock Clock, charsPerSecond float64) *Speaker {
	if charsPerSecond <= 0 {
		charsPerSecond = DefaultCharsPerSecond
	}
	return &Speaker{clock: clock, rate: charsPerSecond}
}

// SpeakingTime returns how long the given text takes to play.
func (s *Speaker) SpeakingTime(text string) time.Duration {
	return time.Duration(float64(len(text)) / s.rate * float64(time.Second))
}

// Start begins playing text and returns immediately (VO.START). If output
// is already playing, the new text is queued to start when it ends —
// matching a TTS engine's utterance queue.
func (s *Speaker) Start(text string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.clock.Now()
	start := now
	if s.busyUntil.After(now) {
		start = s.busyUntil
	}
	end := start.Add(s.SpeakingTime(text))
	s.busyUntil = end
	s.transcript = append(s.transcript, Utterance{Text: text, Start: start, End: end})
}

// PlayingAt reports whether output is still playing at now, a reading of
// the speaker's clock (VO.ISPLAYING). The caller reads the clock, so a
// planner that also needs the time reads it once.
func (s *Speaker) PlayingAt(now time.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.busyUntil.After(now)
}

// Transcript returns the utterances spoken so far, in order.
func (s *Speaker) Transcript() []Utterance {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Utterance, len(s.transcript))
	copy(out, s.transcript)
	return out
}
