package datagen

import "math/rand"

// rand.NewSource is an additive lagged Fibonacci generator: its n-th value
// is x[n] = x[n-607] + x[n-273] mod 2^64, and Int63 returns the low 63
// bits, which follow the same recurrence mod 2^63. Go keeps this value
// stream fixed for a given seed (math/rand's Float64 says so), and
// TestInt63StreamMatchesNewSource holds the recurrence to the source.
const (
	lagLong   = 607
	lagShort  = 273
	int63Mask = 1<<63 - 1
)

// int63Stream hands out a source's Int63 values. A seeded stream keeps
// only the last lagLong values and writes the recurrence straight into
// the reader's slice, about a nanosecond a value where a call through the
// rand.Source interface costs several. A stream over any other source
// calls it once per value.
type int63Stream struct {
	src rand.Source // nil for a seeded stream
	// lags[at:at+lagLong] are a seeded stream's last lagLong values, the
	// recurrence's inputs. A short read appends its values after them, so
	// the window moves back to the front only when it reaches the end.
	lags []int64
	at   int
}

// seededStream is the Int63 stream of rand.NewSource(seed). Its history
// is the lagLong values before the source's first: the recurrence run
// backwards, x[n-607] = x[n] - x[n-273], from the source's first lagLong
// values.
func seededStream(seed int64) *int63Stream {
	src := rand.NewSource(seed)
	var first [lagLong]int64
	for i := range first {
		first[i] = src.Int63()
	}
	// lags[n] is x[n-607], x[0] being the source's first value; x[n-273]
	// is a first value for n >= 273, and a history value the first loop
	// computed for n < 273.
	s := &int63Stream{lags: make([]int64, 2*lagLong)}
	for n := lagShort; n < lagLong; n++ {
		s.lags[n] = (first[n] - first[n-lagShort]) & int63Mask
	}
	for n := 0; n < lagShort; n++ {
		s.lags[n] = (first[n] - s.lags[n+lagLong-lagShort]) & int63Mask
	}
	return s
}

// sourceStream is the Int63 stream of src, one call per value and no
// history.
func sourceStream(src rand.Source) *int63Stream { return &int63Stream{src: src} }

// read fills dst with the stream's next values.
func (s *int63Stream) read(dst []int64) {
	if s.src != nil {
		for i := range dst {
			dst[i] = s.src.Int63()
		}
		return
	}
	recur(dst, s.lags[s.at:s.at+lagLong])
	if len(dst) >= lagLong {
		// A block carries its own last lagLong values to the next read.
		copy(s.lags, dst[len(dst)-lagLong:])
		s.at = 0
		return
	}
	if s.at+lagLong+len(dst) > len(s.lags) {
		copy(s.lags, s.lags[s.at:s.at+lagLong])
		s.at = 0
	}
	copy(s.lags[s.at+lagLong:], dst)
	s.at += len(dst)
}

// recur writes into dst the lagLong-lag recurrence's next len(dst) values
// after hist, its last lagLong values: x[i] = x[i-607] + x[i-273], where
// x[i] is hist[lagLong+i] for i < 0 and dst[i] after.
func recur(dst, hist []int64) {
	hist = hist[:lagLong]
	n := len(dst)
	both := min(n, lagShort) // both lags in hist
	for i := range dst[:both] {
		dst[i] = (hist[i] + hist[i+lagLong-lagShort]) & int63Mask
	}
	for i := both; i < min(n, lagLong); i++ {
		dst[i] = (hist[i] + dst[i-lagShort]) & int63Mask
	}
	if n <= lagLong {
		return
	}
	// Four values a step: each lag is at least four values back.
	long, short := dst[:n-lagLong], dst[lagLong-lagShort:n-lagShort]
	next := dst[lagLong:]
	i := 0
	for ; i+4 <= len(next); i += 4 {
		l, s, d := long[i:i+4:i+4], short[i:i+4:i+4], next[i:i+4:i+4]
		d[0] = (l[0] + s[0]) & int63Mask
		d[1] = (l[1] + s[1]) & int63Mask
		d[2] = (l[2] + s[2]) & int63Mask
		d[3] = (l[3] + s[3]) & int63Mask
	}
	for ; i < len(next); i++ {
		next[i] = (long[i] + short[i]) & int63Mask
	}
}
