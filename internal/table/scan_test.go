package table

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func tableWithNRows(t testing.TB, n int) *Table {
	t.Helper()
	c := NewFloat64Column("v")
	for i := 0; i < n; i++ {
		c.Append(float64(i))
	}
	tab, err := New("t", c)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestSequentialScanner(t *testing.T) {
	s := NewSequentialScanner(tableWithNRows(t, 3))
	var got []int
	for {
		r, ok := s.Next()
		if !ok {
			break
		}
		got = append(got, r)
	}
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Errorf("sequential scan = %v", got)
	}
	if _, ok := s.Next(); ok {
		t.Error("exhausted scanner should stay exhausted")
	}
	s.Reset()
	if r, ok := s.Next(); !ok || r != 0 {
		t.Error("reset should restart the stream")
	}
}

func TestSequentialScannerEmpty(t *testing.T) {
	s := NewSequentialScanner(tableWithNRows(t, 0))
	if _, ok := s.Next(); ok {
		t.Error("empty table scan should be exhausted immediately")
	}
}

func TestRandomScannerCoversAllRows(t *testing.T) {
	for _, n := range []int{1, 2, 7, 64, 100, 1000} {
		rng := rand.New(rand.NewSource(int64(n)))
		s := NewRandomScanner(tableWithNRows(t, n), rng)
		seen := make([]bool, n)
		count := 0
		for {
			r, ok := s.Next()
			if !ok {
				break
			}
			if r < 0 || r >= n {
				t.Fatalf("n=%d: row %d out of range", n, r)
			}
			if seen[r] {
				t.Fatalf("n=%d: row %d emitted twice", n, r)
			}
			seen[r] = true
			count++
		}
		if count != n {
			t.Errorf("n=%d: emitted %d rows", n, count)
		}
	}
}

func TestRandomScannerEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := NewRandomScanner(tableWithNRows(t, 0), rng)
	if _, ok := s.Next(); ok {
		t.Error("empty random scan should be exhausted")
	}
}

func TestRandomScannerResetReplaysOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := NewRandomScanner(tableWithNRows(t, 20), rng)
	var first []int
	for {
		r, ok := s.Next()
		if !ok {
			break
		}
		first = append(first, r)
	}
	s.Reset()
	for i := range first {
		r, ok := s.Next()
		if !ok || r != first[i] {
			t.Fatal("reset should replay the same order")
		}
	}
}

func TestRandomScannerRemaining(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := NewRandomScanner(tableWithNRows(t, 5), rng)
	s.Next()
	s.Next()
	left := 0
	for _, ok := s.Next(); ok; _, ok = s.Next() {
		left++
	}
	if left != 3 {
		t.Errorf("%d rows after the first two, want 3", left)
	}
}

func TestRandomScannerNotSequentialForLargeN(t *testing.T) {
	// Rows of one block are consecutive by construction; the blocks are
	// not. With 1000 rows the probability that a random affine order of
	// the blocks equals the sequential one is negligible unless stride==1
	// and offset==0; detect obviously broken shuffling.
	rng := rand.New(rand.NewSource(99))
	s := NewRandomScanner(tableWithNRows(t, 1000), rng)
	inOrder := true
	for i := 0; i < 10*blockRows; i++ {
		if r, _ := s.Next(); r != i {
			inOrder = false
		}
	}
	if inOrder {
		t.Error("random scan looks sequential")
	}
}

// drainMixed empties s through Next and NextBatch calls interleaved at
// random, with buffers from one row to three blocks, checking that every
// row of [lo, lo+n) comes exactly once and that the scanner's count of
// rows left counts down.
func drainMixed(t *testing.T, s *RandomScanner, rng *rand.Rand, lo, n int) []int {
	t.Helper()
	seen := make([]bool, n)
	order := make([]int, 0, n)
	buf := make([]int, 3*blockRows)
	for {
		left := s.n - s.emitted
		if left != n-len(order) {
			t.Fatalf("n=%d: %d rows left after %d rows", n, left, len(order))
		}
		var got []int
		if rng.Intn(2) == 0 {
			if r, ok := s.Next(); ok {
				got = []int{r}
			}
		} else {
			b := buf[:1+rng.Intn(len(buf))]
			got = b[:s.NextBatch(b)]
		}
		if len(got) == 0 {
			if left != 0 {
				t.Fatalf("n=%d: stream ended with %d rows remaining", n, left)
			}
			return order
		}
		for _, r := range got {
			if r < lo || r >= lo+n || seen[r-lo] {
				t.Fatalf("n=%d lo=%d: row %d out of range or emitted twice", n, lo, r)
			}
			seen[r-lo] = true
		}
		order = append(order, got...)
	}
}

// Property: over any range, however the stream is pulled, every row comes
// exactly once, blocks come whole and ascending, and Reset replays the
// order.
func TestBlockWalkProperty(t *testing.T) {
	const B = blockRows
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, B - 1, B, B + 1, 5*B + 3, 200000} {
		for seed := int64(0); seed < 4; seed++ {
			lo := rng.Intn(1000)
			s := NewRandomRangeScanner(lo, lo+n, rand.New(rand.NewSource(seed)))
			order := drainMixed(t, s, rng, lo, n)
			for i := 1; i < len(order); i++ {
				if (order[i]-lo)%B != 0 && order[i] != order[i-1]+1 {
					t.Fatalf("n=%d: row %d follows %d inside a block", n, order[i], order[i-1])
				}
			}
			s.Reset()
			for i, r := range drainMixed(t, s, rng, lo, n) {
				if r != order[i] {
					t.Fatalf("n=%d: replay row %d = %d, first pass %d", n, i, r, order[i])
				}
			}
		}
	}
}

// A scanner built before an append never emits an appended row, whether
// the watermark falls on a block boundary or inside a block.
func TestBlockWalkPinnedUnderAppend(t *testing.T) {
	const B = blockRows
	for _, n := range []int{1, B - 1, B, B + 1, 5*B + 3} {
		tab, err := New("t", makeFloatColumn("v", n))
		if err != nil {
			t.Fatal(err)
		}
		live, err := tab.AppendableCopy(streamTime(0))
		if err != nil {
			t.Fatal(err)
		}
		s := NewRandomScanner(live, rand.New(rand.NewSource(int64(n))))
		if _, err := live.AppendBatch(NewRowBatch().Float64s("v", 1, 2, 3), streamTime(1)); err != nil {
			t.Fatal(err)
		}
		if got := len(drainMixed(t, s, rand.New(rand.NewSource(2)), 0, n)); got != n {
			t.Errorf("n=%d: emitted %d rows after an append of 3", n, got)
		}
	}
}

// The first 256 rows of the stream hit every row of a 4 096-row table with
// equal frequency over 2 000 seeds: a chi-square test of uniformity at the
// block level (rows of a block come together, so their counts are equal by
// construction and carry no extra degrees of freedom).
func TestBlockWalkUniformInclusion(t *testing.T) {
	const n, first, seeds = 4096, 256, 2000
	tab := tableWithNRows(t, n)
	rowHits := make([]int, n)
	buf := make([]int, first)
	for seed := int64(0); seed < seeds; seed++ {
		NewRandomScanner(tab, rand.New(rand.NewSource(seed))).NextBatch(buf)
		for _, r := range buf {
			rowHits[r]++
		}
	}
	nb := n / blockRows
	want := float64(seeds) * first / n
	chi2 := 0.0
	for b := 0; b < nb; b++ {
		for r := b * blockRows; r < (b+1)*blockRows; r++ {
			if rowHits[r] != rowHits[b*blockRows] {
				t.Fatalf("rows %d and %d of one block hit %d and %d times", b*blockRows, r, rowHits[b*blockRows], rowHits[r])
			}
		}
		d := float64(rowHits[b*blockRows]) - want
		chi2 += d * d / want
	}
	// Each seed draws first/blockRows of nb blocks without replacement, so
	// a block's count is binomial with variance want*(1-first/n) and the
	// statistic, rescaled, is chi-square with nb-1 degrees of freedom:
	// mean nb-1, standard deviation sqrt(2(nb-1)). Five of them is 1e-6.
	chi2 /= 1 - float64(first)/n
	df := float64(nb - 1)
	t.Logf("chi-square %.1f, df %.0f", chi2, df)
	if limit := df + 5*math.Sqrt(2*df); chi2 > limit {
		t.Errorf("chi-square %.1f over %d blocks, limit %.1f: inclusion is not uniform", chi2, nb, limit)
	}
}

// Property: the random scanner is a permutation for any n >= 1.
func TestRandomScannerPermutationProperty(t *testing.T) {
	f := func(seed int64, nSeed uint16) bool {
		n := int(nSeed)%500 + 1
		rng := rand.New(rand.NewSource(seed))
		s := NewRandomScanner(tableWithNRows(t, n), rng)
		seen := make(map[int]bool, n)
		for {
			r, ok := s.Next()
			if !ok {
				break
			}
			if seen[r] {
				return false
			}
			seen[r] = true
		}
		return len(seen) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestGCD(t *testing.T) {
	cases := []struct{ a, b, want int }{
		{12, 8, 4}, {7, 13, 1}, {10, 5, 5}, {1, 1, 1},
	}
	for _, c := range cases {
		if got := gcd(c.a, c.b); got != c.want {
			t.Errorf("gcd(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}
