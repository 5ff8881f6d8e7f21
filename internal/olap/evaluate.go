package olap

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/table"
)

// Result holds the exact evaluation of a query: per-aggregate counts and
// sums from which any of the supported aggregation functions derive.
type Result struct {
	space  *Space
	counts []int64
	sums   []float64
	// rows is the number of table rows the scan classified.
	rows int64
}

// Evaluate computes the exact query result with a full scan of the base
// table. It is the ground truth used to score speech quality and the data
// source of the "Optimal" baseline.
func Evaluate(d *Dataset, q Query) (*Result, error) {
	space, err := NewSpace(d, q)
	if err != nil {
		return nil, err
	}
	return EvaluateSpace(space)
}

// EvaluateSpace evaluates the query of an already constructed space,
// sharding the scan across runtime.GOMAXPROCS(0) workers.
func EvaluateSpace(space *Space) (*Result, error) {
	return EvaluateSpaceWorkers(space, runtime.GOMAXPROCS(0))
}

// EvaluateSpaceSequential evaluates the query with a single-threaded
// row-at-a-time scan: the reference EvaluateSpaceWorkers is checked (and
// benchmarked) against. Its counts match exactly; its sums group the
// additions row by row rather than chunk by chunk, so they match to
// rounding only.
func EvaluateSpaceSequential(space *Space) (*Result, error) {
	measure, err := evalMeasure(space)
	if err != nil {
		return nil, err
	}
	r := &Result{
		space:  space,
		counts: make([]int64, space.Size()),
		sums:   make([]float64, space.Size()),
	}
	n := space.Dataset().Table().NumRows()
	for row := 0; row < n; row++ {
		r.rows++
		idx, ok := space.ClassifyRow(row)
		if !ok {
			continue
		}
		r.counts[idx]++
		if measure != nil {
			r.sums[idx] += measure.Float(row)
		}
	}
	return r, nil
}

// evalChunkRows is the fixed work grain of the exact scan. Chunk
// boundaries depend only on the table size — never on the worker count —
// so per-chunk partial sums always merge in the same order and the result
// is bit-for-bit identical for any number of workers, one included.
const evalChunkRows = 8192

// evalParallelMinRows is the smallest table for which starting scan
// goroutines pays for itself. Below it (or with a single usable CPU) the
// goroutines were measurably slower than one loop — a 0.985x speedup was
// recorded on a one-CPU machine — so EvaluateSpaceWorkers runs the chunk
// loop on the calling goroutine instead.
const evalParallelMinRows = 4 * evalChunkRows

// evalWorkers returns the number of goroutines an n-row scan starts: none
// (1, the calling goroutine) when the caller asked for one worker, when
// the table is below evalParallelMinRows, or when only one CPU can run;
// the requested count capped by GOMAXPROCS and the chunk count otherwise.
func evalWorkers(n, workers int) int {
	if workers <= 1 || n < evalParallelMinRows {
		return 1
	}
	if p := runtime.GOMAXPROCS(0); workers > p {
		workers = p
	}
	if chunks := (n + evalChunkRows - 1) / evalChunkRows; workers > chunks {
		workers = chunks
	}
	return workers
}

// EvaluateSpaceWorkers evaluates the query with the given number of scan
// workers. Workers classify fixed-size row chunks into private
// accumulator grids through the dense batch classifier; the grids merge
// in chunk order at the end. When parallelism cannot win (one worker, one
// CPU, or a small table — see evalWorkers) the calling goroutine runs the
// same chunk loop alone, so the result is bit-for-bit identical either way.
func EvaluateSpaceWorkers(space *Space, workers int) (*Result, error) {
	measure, err := evalMeasure(space)
	if err != nil {
		return nil, err
	}
	var vals []float64
	if measure != nil {
		vals = measure.Values()
	}
	n := space.Dataset().Table().NumRows()
	chunks := (n + evalChunkRows - 1) / evalChunkRows
	size := space.Size()
	// Per-chunk grids live in two shared slabs (one allocation each instead
	// of two per chunk), with the per-chunk stride rounded up to a whole
	// number of 64-byte cache lines: adjacent chunks are usually processed
	// by different workers, and an unpadded boundary would false-share the
	// last aggregates of chunk c with the first aggregates of chunk c+1.
	stride := (size + 7) &^ 7
	countSlab := make([]int64, chunks*stride)
	var sumSlab []float64
	if vals != nil {
		sumSlab = make([]float64, chunks*stride)
	}
	var next, read atomic.Int64
	scan := func() {
		idxs := make([]int32, min(n, evalChunkRows))
		rows := 0
		defer func() { read.Add(int64(rows)) }()
		for {
			c := int(next.Add(1)) - 1
			if c >= chunks {
				return
			}
			lo := c * evalChunkRows
			hi := min(lo+evalChunkRows, n)
			rows += hi - lo
			counts := countSlab[c*stride : c*stride+size]
			space.ClassifyRange(lo, hi, idxs)
			if vals != nil {
				sums := sumSlab[c*stride : c*stride+size]
				chunkVals := vals[lo:hi]
				for i, idx := range idxs[:hi-lo] {
					if idx >= 0 {
						counts[idx]++
						sums[idx] += chunkVals[i]
					}
				}
			} else {
				for _, idx := range idxs[:hi-lo] {
					if idx >= 0 {
						counts[idx]++
					}
				}
			}
		}
	}
	if workers = evalWorkers(n, workers); workers <= 1 {
		scan()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				scan()
			}()
		}
		wg.Wait()
	}
	r := &Result{
		space:  space,
		counts: make([]int64, size),
		sums:   make([]float64, size),
		rows:   read.Load(),
	}
	for c := 0; c < chunks; c++ {
		counts := countSlab[c*stride : c*stride+size]
		for a := 0; a < size; a++ {
			r.counts[a] += counts[a]
		}
		if sumSlab != nil {
			sums := sumSlab[c*stride : c*stride+size]
			for a := 0; a < size; a++ {
				r.sums[a] += sums[a]
			}
		}
	}
	return r, nil
}

// evalMeasure resolves the measure column of a space's query (nil for
// count queries).
func evalMeasure(space *Space) (*table.Float64Column, error) {
	q := space.Query()
	if q.Fct == Count {
		return nil, nil
	}
	return space.Dataset().Measure(q.Col)
}

// Space returns the aggregate space of the result.
func (r *Result) Space() *Space { return r.space }

// RowsRead returns the number of table rows the scan classified: every
// row of the table, including those outside the query's scope or window.
func (r *Result) RowsRead() int64 { return r.rows }

// Count returns the row count of aggregate idx.
func (r *Result) Count(idx int) int64 { return r.counts[idx] }

// Sum returns the measure sum of aggregate idx.
func (r *Result) Sum(idx int) float64 { return r.sums[idx] }

// Value returns the aggregate value of idx under the query's aggregation
// function. Average over an empty aggregate returns NaN.
func (r *Result) Value(idx int) float64 {
	switch r.space.Query().Fct {
	case Count:
		return float64(r.counts[idx])
	case Sum:
		return r.sums[idx]
	case Avg:
		if r.counts[idx] == 0 {
			return math.NaN()
		}
		return r.sums[idx] / float64(r.counts[idx])
	default:
		panic(fmt.Sprintf("olap: unknown aggregation function %v", r.space.Query().Fct))
	}
}

// Values returns all aggregate values in index order.
func (r *Result) Values() []float64 {
	out := make([]float64, r.space.Size())
	for i := range out {
		out[i] = r.Value(i)
	}
	return out
}

// GrandValue returns the aggregate value over the entire query scope
// (all aggregates combined): total count, total sum, or overall average.
func (r *Result) GrandValue() float64 {
	var count int64
	var sum float64
	for i := range r.counts {
		count += r.counts[i]
		sum += r.sums[i]
	}
	switch r.space.Query().Fct {
	case Count:
		return float64(count)
	case Sum:
		return sum
	case Avg:
		if count == 0 {
			return math.NaN()
		}
		return sum / float64(count)
	default:
		panic(fmt.Sprintf("olap: unknown aggregation function %v", r.space.Query().Fct))
	}
}
