package table

import (
	"math/rand"
	"testing"
)

// drainBatched empties a scanner in reads of batch rows; an awkward size
// (not a divisor of typical row counts) exercises partial batches.
func drainBatched(s Scanner, batch int) []int {
	buf := make([]int, batch)
	var out []int
	for {
		n := s.NextBatch(buf)
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
	if n := s.NextBatch(make([]int, 4)); n != 0 {
		t.Errorf("exhausted scanner returned %d rows", n)
	}
}

func TestRandomRangeScannerCoversPartition(t *testing.T) {
	for _, tc := range []struct{ lo, hi int }{{0, 1}, {5, 6}, {10, 137}, {0, 64}} {
		s := NewRandomRangeScanner(tc.lo, tc.hi, rand.New(rand.NewSource(3)))
		seen := make(map[int]bool)
		for _, r := range drainBatched(s, 3) {
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
