package table

import (
	"math/rand"
)

// Scanner produces a stream of row indices from a table. NextBatch fills
// buf with the next row indices and returns how many it wrote, which may be
// fewer than len(buf); it returns 0 once the stream is exhausted.
type Scanner interface {
	NextBatch(buf []int) int
}

// FillBatch is s.NextBatch(buf). It stays only because benchmark/probes.go
// calls it (lines 87 and 124); ROADMAP item 1a(i) removes both.
func FillBatch(s Scanner, buf []int) int { return s.NextBatch(buf) }

// SequentialScanner yields rows 0..n-1 in order.
type SequentialScanner struct {
	n, pos int
}

// NewSequentialScanner scans the table front to back. The scanner is
// pinned at construction to the table's committed watermark: rows appended
// after construction are never emitted, so an in-flight scan over a growing
// table cannot mix an old row bound with new data.
func NewSequentialScanner(t *Table) *SequentialScanner {
	return &SequentialScanner{n: t.NumRows()}
}

// NextBatch implements Scanner.
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
	n, base    int // rows [base, base+n)
	b          int // rows per block
	nb, stride int // the affine walk over ceil(n/b) blocks
	emitted    int
	block, row int // block being emitted; its next row, relative to base
}

// NewRandomScanner returns a scanner over all rows of t in pseudo-random
// order derived from rng. An empty table yields an exhausted scanner. Like
// NewSequentialScanner, the scanner is pinned to the table's committed
// watermark at construction: rows appended later are never emitted.
func NewRandomScanner(t *Table, rng *rand.Rand) *RandomScanner {
	return NewRandomRangeScanner(0, t.NumRows(), rng)
}

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
	s.block = rng.Intn(s.nb) // the walk's offset
	s.stride = coprimeStride(s.nb, rng)
	s.row = s.block * b
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

// NextBatch implements Scanner: each block is a run of consecutive
// integers, and a block cut short by the end of buf resumes on the next
// call.
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
