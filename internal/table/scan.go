package table

import (
	"math/rand"
)

// Scanner produces a stream of row indices from a table. Next returns the
// next row index and true, or 0 and false when the stream is exhausted.
type Scanner interface {
	Next() (row int, ok bool)
	// Reset restarts the stream from the beginning.
	Reset()
}

// BatchScanner is an optional Scanner extension: NextBatch fills buf with
// the next row indices and returns how many were written (0 when the
// stream is exhausted). Native implementations amortize the per-row
// interface dispatch of Next into one call per batch.
type BatchScanner interface {
	NextBatch(buf []int) int
}

// FillBatch pulls up to len(buf) rows from s into buf, using the native
// batch implementation when the scanner provides one and falling back to
// repeated Next calls otherwise. It returns the number of rows written.
func FillBatch(s Scanner, buf []int) int {
	if bs, ok := s.(BatchScanner); ok {
		return bs.NextBatch(buf)
	}
	n := 0
	for n < len(buf) {
		r, ok := s.Next()
		if !ok {
			break
		}
		buf[n] = r
		n++
	}
	return n
}

// SequentialScanner yields rows 0..n-1 in order.
type SequentialScanner struct {
	n, pos int
	epoch  int64
}

// NewSequentialScanner scans the table front to back. The scanner is
// pinned at construction to the table's committed watermark and epoch:
// rows appended after construction are never emitted, so an in-flight
// scan over a growing table cannot mix an old row bound with new data.
func NewSequentialScanner(t *Table) *SequentialScanner {
	return &SequentialScanner{n: t.CommittedRows(), epoch: t.Epoch()}
}

// Epoch returns the table epoch the scanner was pinned to at construction.
func (s *SequentialScanner) Epoch() int64 { return s.epoch }

// Next implements Scanner.
func (s *SequentialScanner) Next() (int, bool) {
	if s.pos >= s.n {
		return 0, false
	}
	r := s.pos
	s.pos++
	return r, true
}

// Reset implements Scanner.
func (s *SequentialScanner) Reset() { s.pos = 0 }

// NextBatch implements BatchScanner.
func (s *SequentialScanner) NextBatch(buf []int) int {
	n := 0
	for n < len(buf) && s.pos < s.n {
		buf[n] = s.pos
		s.pos++
		n++
	}
	return n
}

// blockRows is B, the number of consecutive rows RandomScanner emits per
// pseudo-random block: one cache line of int32 codes, two of float64
// measures. It was chosen from two measurements (DESIGN.md, "The row
// stream"). Throughput: with the sampler's first-touch pass a row costs
// about 81 / 39 / 30 / 23 / 22 / 22 ns at B = 1 / 4 / 8 / 16 / 32 / 64 over
// 5.3 M rows (BenchmarkSamplerReadRows), so 16 is the knee. Statistics: on a
// date-sorted table (TestBlockSampleCoverage) an average per month is
// covered at nominal at every size, but the 95 % interval of a count per
// month, which takes the rows for independent draws, covers 0.92 at 16,
// 0.85 at 32 and 0.69 at 64.
const blockRows = 16

// RandomScanner yields every row exactly once in a pseudo-random order using
// O(1) memory: it cuts the rows into blocks of blockRows consecutive rows
// (the last one short), walks the blocks in the full-cycle affine sequence
// i -> (i*stride + offset) mod nb where gcd(stride, nb) == 1, and emits each
// block's rows in ascending order. That gives the sample cache an unbiased
// row stream over arbitrarily large tables without materializing a
// permutation, and makes it pay for cache lines instead of rows. The stream
// is a cluster sample: rows of one block arrive together.
type RandomScanner struct {
	n, base            int // rows [base, base+n)
	b                  int // rows per block
	nb, stride, offset int // the affine walk over ceil(n/b) blocks
	emitted            int
	block, row         int // block being emitted; its next row, relative to base
	epoch              int64
}

// NewRandomScanner returns a scanner over all rows of t in pseudo-random
// order derived from rng. An empty table yields an exhausted scanner. Like
// NewSequentialScanner, the scanner is pinned to the table's committed
// watermark and epoch at construction: rows appended later are never
// emitted.
func NewRandomScanner(t *Table, rng *rand.Rand) *RandomScanner {
	s := NewRandomRangeScanner(0, t.CommittedRows(), rng)
	s.epoch = t.Epoch()
	return s
}

// Epoch returns the table epoch the scanner was pinned to at construction
// (0 for range scanners built without a table).
func (s *RandomScanner) Epoch() int64 { return s.epoch }

// NewRandomRangeScanner returns a scanner over rows [lo, hi) in
// pseudo-random order derived from rng: the same block walk as
// NewRandomScanner restricted to a contiguous partition, blocks counted
// from lo. An empty range yields an exhausted scanner.
func NewRandomRangeScanner(lo, hi int, rng *rand.Rand) *RandomScanner {
	return newBlockScanner(lo, hi, blockRows, rng)
}

// newBlockScanner is NewRandomRangeScanner at b rows per block; only the
// coverage and throughput tests that choose blockRows pass another b.
func newBlockScanner(lo, hi, b int, rng *rand.Rand) *RandomScanner {
	n := hi - lo
	if n < 0 {
		n = 0
	}
	s := &RandomScanner{n: n, base: lo, b: b, nb: (n + b - 1) / b}
	if n == 0 {
		return s
	}
	s.offset = rng.Intn(s.nb)
	s.stride = coprimeStride(s.nb, rng)
	s.Reset()
	return s
}

// coprimeStride picks a stride in [1, n) coprime with n so the affine walk
// visits every block exactly once.
func coprimeStride(n int, rng *rand.Rand) int {
	if n == 1 {
		return 1
	}
	for {
		c := 1 + rng.Intn(n-1)
		if gcd(c, n) == 1 {
			return c
		}
	}
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Next implements Scanner.
func (s *RandomScanner) Next() (int, bool) {
	var one [1]int
	if s.NextBatch(one[:]) == 0 {
		return 0, false
	}
	return one[0], true
}

// NextBatch implements BatchScanner with no interface dispatch: each block
// is a run of consecutive integers, and a block cut short by the end of buf
// resumes on the next call.
func (s *RandomScanner) NextBatch(buf []int) int {
	want := min(s.n-s.emitted, len(buf))
	for i := 0; i < want; {
		end := min((s.block+1)*s.b, s.n)
		run := buf[i:min(want, i+end-s.row)]
		for j := range run {
			run[j] = s.base + s.row + j
		}
		i += len(run)
		if s.row += len(run); s.row == end {
			if s.block += s.stride; s.block >= s.nb {
				s.block -= s.nb
			}
			s.row = s.block * s.b
		}
	}
	s.emitted += want
	return want
}

// Reset implements Scanner. The same pseudo-random order is replayed.
func (s *RandomScanner) Reset() {
	s.emitted = 0
	s.block = s.offset
	s.row = s.offset * s.b
}
