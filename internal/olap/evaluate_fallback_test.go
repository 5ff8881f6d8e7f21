package olap

import (
	"math"
	"runtime"
	"testing"
)

// TestEvalWorkersFallback pins the policy that fixed the 0.985x "speedup"
// once recorded on a one-CPU machine: small tables and single-worker
// requests must resolve to exactly one worker (the calling goroutine), and
// larger requests are capped by GOMAXPROCS and chunk count.
func TestEvalWorkersFallback(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	big := 10 * evalChunkRows
	cases := []struct {
		name       string
		n, workers int
		want       int
	}{
		{"one worker requested", big, 1, 1},
		{"zero workers requested", big, 0, 1},
		{"small table", evalParallelMinRows - 1, 8, 1},
		{"threshold table", evalParallelMinRows, 2, 2},
		{"capped by GOMAXPROCS", big, 64, 4},
		{"capped by chunk count", 4*evalChunkRows + 1, 3, 3},
		{"chunk cap binds", evalParallelMinRows + 1, 64, 4},
	}
	for _, c := range cases {
		if got := evalWorkers(c.n, c.workers); got != c.want {
			t.Errorf("%s: evalWorkers(%d, %d) = %d, want %d",
				c.name, c.n, c.workers, got, c.want)
		}
	}
}

// TestEvaluateSmallTableFallsBackToSequential verifies that a small table
// evaluated "in parallel" produces a result bit-identical to the
// sequential scan: it is one chunk, scanned on the calling goroutine in
// row order, and its one partial grid adds to zeros.
func TestEvaluateSmallTableFallsBackToSequential(t *testing.T) {
	f := newFixture(t)
	space, err := NewSpace(f.dataset, f.regionSeasonQuery())
	if err != nil {
		t.Fatalf("NewSpace: %v", err)
	}
	seq, err := EvaluateSpaceSequential(space)
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	par, err := EvaluateSpaceWorkers(space, 8)
	if err != nil {
		t.Fatalf("workers 8: %v", err)
	}
	for a := 0; a < space.Size(); a++ {
		if par.counts[a] != seq.counts[a] || par.sums[a] != seq.sums[a] {
			t.Errorf("agg %d: parallel (%v,%d) differs bitwise from sequential (%v,%d)",
				a, par.sums[a], par.counts[a], seq.sums[a], seq.counts[a])
		}
		pv, sv := par.Value(a), seq.Value(a)
		if pv != sv && !(math.IsNaN(pv) && math.IsNaN(sv)) {
			t.Errorf("agg %d: value %v != %v", a, pv, sv)
		}
	}
}
