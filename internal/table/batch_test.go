package table

import (
	"math/rand"
	"testing"
)

// drainBatched consumes a scanner through FillBatch with an awkward batch
// size (not a divisor of typical row counts) to exercise partial batches.
func drainBatched(s Scanner, batch int) []int {
	buf := make([]int, batch)
	var out []int
	for {
		n := FillBatch(s, buf)
		if n == 0 {
			return out
		}
		out = append(out, buf[:n]...)
	}
}

func TestSequentialNextBatch(t *testing.T) {
	tab, err := New("t", makeFloatColumn("v", 100))
	if err != nil {
		t.Fatal(err)
	}
	s := NewSequentialScanner(tab)
	rows := drainBatched(s, 7)
	if len(rows) != 100 {
		t.Fatalf("emitted %d rows, want 100", len(rows))
	}
	for i, r := range rows {
		if r != i {
			t.Fatalf("row %d = %d, want %d", i, r, i)
		}
	}
	if n := FillBatch(s, make([]int, 4)); n != 0 {
		t.Errorf("exhausted scanner returned %d rows", n)
	}
}

func TestRandomNextBatchMatchesNext(t *testing.T) {
	tab, err := New("t", makeFloatColumn("v", 251))
	if err != nil {
		t.Fatal(err)
	}
	a := NewRandomScanner(tab, rand.New(rand.NewSource(9)))
	b := NewRandomScanner(tab, rand.New(rand.NewSource(9)))
	var viaNext []int
	for {
		r, ok := a.Next()
		if !ok {
			break
		}
		viaNext = append(viaNext, r)
	}
	viaBatch := drainBatched(b, 17)
	if len(viaNext) != len(viaBatch) {
		t.Fatalf("Next emitted %d rows, NextBatch %d", len(viaNext), len(viaBatch))
	}
	for i := range viaNext {
		if viaNext[i] != viaBatch[i] {
			t.Fatalf("row %d: Next %d, NextBatch %d", i, viaNext[i], viaBatch[i])
		}
	}
}

func TestFillBatchFallsBackToNext(t *testing.T) {
	// A bare Scanner without the BatchScanner extension still works.
	s := &nextOnlyScanner{n: 10}
	rows := drainBatched(s, 3)
	if len(rows) != 10 {
		t.Fatalf("emitted %d rows, want 10", len(rows))
	}
}

type nextOnlyScanner struct{ n, pos int }

func (s *nextOnlyScanner) Next() (int, bool) {
	if s.pos >= s.n {
		return 0, false
	}
	r := s.pos
	s.pos++
	return r, true
}

func (s *nextOnlyScanner) Reset() { s.pos = 0 }

func TestRandomRangeScannerCoversPartition(t *testing.T) {
	for _, tc := range []struct{ lo, hi int }{{0, 1}, {5, 6}, {10, 137}, {0, 64}} {
		s := NewRandomRangeScanner(tc.lo, tc.hi, rand.New(rand.NewSource(3)))
		seen := make(map[int]bool)
		for {
			r, ok := s.Next()
			if !ok {
				break
			}
			if r < tc.lo || r >= tc.hi {
				t.Fatalf("[%d,%d): row %d out of range", tc.lo, tc.hi, r)
			}
			if seen[r] {
				t.Fatalf("[%d,%d): row %d emitted twice", tc.lo, tc.hi, r)
			}
			seen[r] = true
		}
		if len(seen) != tc.hi-tc.lo {
			t.Fatalf("[%d,%d): covered %d rows, want %d", tc.lo, tc.hi, len(seen), tc.hi-tc.lo)
		}
	}
}

func TestRandomRangeScannerEmpty(t *testing.T) {
	s := NewRandomRangeScanner(4, 4, rand.New(rand.NewSource(1)))
	if _, ok := s.Next(); ok {
		t.Error("empty range should be exhausted")
	}
	if n := s.NextBatch(make([]int, 8)); n != 0 {
		t.Errorf("empty range NextBatch = %d", n)
	}
}

func TestStringColumnFromCodes(t *testing.T) {
	dict := []string{"a", "b", "c"}
	codes := []int32{2, 0, 1, 1}
	c, err := NewStringColumnFromCodes("s", dict, codes)
	if err != nil {
		t.Fatalf("NewStringColumnFromCodes: %v", err)
	}
	if c.Len() != 4 || c.StringAt(0) != "c" || c.index["b"] != 1 {
		t.Errorf("column misbuilt: len %d, row0 %q, index(b) %d", c.Len(), c.StringAt(0), c.index["b"])
	}
	if _, err := NewStringColumnFromCodes("s", []string{"a", "a"}, nil); err == nil {
		t.Error("duplicate dictionary value should be rejected")
	}
	if _, err := NewStringColumnFromCodes("s", dict, []int32{3}); err == nil {
		t.Error("out-of-range code should be rejected")
	}
}

// makeFloatColumn builds an n-row float column for scanner fixtures.
func makeFloatColumn(name string, n int) *Float64Column {
	c := NewFloat64Column(name)
	for i := 0; i < n; i++ {
		c.Append(float64(i))
	}
	return c
}
