package datagen

import "math/rand"

// rand.NewSource is an additive lagged Fibonacci generator: its n-th value
// is x[n] = x[n-607] + x[n-273] mod 2^64, and Int63 returns the low 63
// bits, which follow the same recurrence mod 2^63. Go keeps this value
// stream fixed for a given seed (math/rand's Float64 says so), and
// TestInt63StreamMatchesNewSource holds the recurrence to the source.
const (
	lagLong  = 607
	lagShort = 273
	// int63Batch is how many values a refill makes.
	int63Batch = 4096
)

// int63Stream hands out a source's Int63 values. A seeded stream takes its
// first lagLong values from rand.NewSource and computes the rest by the
// recurrence in batches, about a nanosecond a value where a call through
// the rand.Source interface costs several. A stream over any other source
// calls it once per value.
type int63Stream struct {
	src  rand.Source // nil for a seeded stream
	buf  []int64     // a seeded stream's values; buf[next:] go out next
	next int
}

// seededStream is the Int63 stream of rand.NewSource(seed).
func seededStream(seed int64) *int63Stream {
	src := rand.NewSource(seed)
	s := &int63Stream{buf: make([]int64, lagLong+int63Batch)}
	for i := range s.buf[:lagLong] {
		s.buf[i] = src.Int63()
	}
	s.recur()
	return s
}

// sourceStream is the Int63 stream of src, one call per value and no
// buffer.
func sourceStream(src rand.Source) *int63Stream { return &int63Stream{src: src} }

// read fills dst with the stream's next values.
func (s *int63Stream) read(dst []int64) {
	if s.src != nil {
		for i := range dst {
			dst[i] = s.src.Int63()
		}
		return
	}
	for len(dst) > 0 {
		if s.next == len(s.buf) {
			s.refill()
		}
		n := copy(dst, s.buf[s.next:])
		s.next += n
		dst = dst[n:]
	}
}

// refill moves the last lagLong values handed out to the front of buf and
// computes the next batch from them.
func (s *int63Stream) refill() {
	copy(s.buf, s.buf[len(s.buf)-lagLong:])
	s.recur()
	s.next = lagLong
}

// recur computes buf[lagLong:] from the lagLong values before it.
func (s *int63Stream) recur() {
	long, short := s.buf[:int63Batch], s.buf[lagLong-lagShort:lagLong-lagShort+int63Batch]
	next := s.buf[lagLong:]
	for i := range next {
		next[i] = (long[i] + short[i]) & (1<<63 - 1)
	}
}
