// Package sampling implements the database-sampling side of the holistic
// algorithm: a cache of per-aggregate sufficient statistics over the
// sampled rows (Algorithm 3 of the paper caches the rows themselves; only
// its literal resampling estimator needs them, see Cache.EnableResample),
// unbiased count/sum/average estimators derived from the cache, the
// PickAggregate selection rule, and confidence bounds for the uncertainty
// extensions. The cache is filled from a pseudo-random row stream in two
// halves: classify (touch, classification, measure gather and the grand
// moments) and fold (the per-aggregate moments). A started Sampler runs
// classify on a row worker, one goroutine that reads the stream a ring of
// chunks ahead, while the planner folds one chunk per round between tree
// samples; the worker lives from Sampler.Start to Sampler.Stop, which joins
// it. Both halves update in row order, so the cache is bit for bit the one
// a single goroutine would fill. Everything else in the package, and every
// cache method, is single-goroutine.
package sampling

import (
	"fmt"
	"math/rand"

	"repro/internal/freelist"
	"repro/internal/olap"
	"repro/internal/stats"
)

// DefaultResampleSize is the fixed subsample size used to derive estimates
// from the cache. The paper uses 10: estimates stay cheap no matter how
// full the cache becomes.
const DefaultResampleSize = 10

// Cache summarizes the sampled rows of one query, classified by aggregate.
// Per aggregate it keeps running moments (count, Welford mean and M2, sum),
// which is all the default estimators and the confidence bounds read; the
// rows themselves are retained only in resample mode (EnableResample).
type Cache struct {
	// classifier is the cache's own first half of an insert, which
	// InsertBatch runs on the caller.
	classifier
	// accs[a] maintains running moments of the measures of the rows cached
	// for aggregate a (for count queries a placeholder 1 per row), giving
	// O(1) full-cache estimates.
	accs []stats.Accumulator
	// grand maintains running moments over all in-scope rows, giving O(1)
	// grand estimates regardless of cache size.
	grand stats.Accumulator
	// scratch and vals are the classification and measure buffers reused
	// across InsertBatch calls.
	scratch []int32
	vals    []float64
	// totalRows is the table row count the cache's estimates scale
	// against, captured when the cache is created (and advanced by
	// AbsorbAppend). Reading it live from the dataset would silently
	// rescale every estimate when the underlying table grows mid-plan —
	// the stale-scale bug the streaming path flushed out.
	totalRows int64
	// nonEmpty lists aggregates with at least one cached row, supporting
	// O(1) uniform random picks.
	nonEmpty []int
	nrRead   int64
	inScope  int64
	// values is the resample store: nil unless EnableResample was called,
	// else values[a] holds the measures of aggregate a's cached rows in
	// insertion order.
	values [][]float64
	// resampleSize is the fixed subsample size Resample draws from values.
	resampleSize int
}

// classifier is the first half of an insert, classify. It reads only what
// no insert changes, the space and the measure, so a sampler's row worker
// (Sampler.Start) runs one of its own on another goroutine while the cache
// folds what it classified.
type classifier struct {
	space *olap.Space
	// measureVals is the measure's backing slice, letting batch inserts
	// gather measures with direct array loads; nil for count queries.
	measureVals []float64
	// lines is the touch pass's buffer, the first row of each cache line of
	// a batch; sink keeps its loads alive.
	lines []int
	sink  float64
}

// buffers are the slices of a cache that Release recycles: the
// accumulators, the non-empty list, the classification and measure scratch
// and the touch pass's lines.
type buffers struct {
	accs     []stats.Accumulator
	nonEmpty []int
	scratch  []int32
	vals     []float64
	lines    []int
}

// pool holds the buffers of released caches.
var pool = freelist.New[buffers]()

// NewCache creates an empty cache for the query of space, on the buffers
// of the cache released last if some are waiting.
func NewCache(space *olap.Space) (*Cache, error) {
	b := pool.Get()
	if b == nil {
		b = new(buffers)
	}
	accs := b.accs[:0]
	if cap(accs) < space.Size() {
		accs = make([]stats.Accumulator, space.Size())
	} else {
		accs = accs[:space.Size()]
		clear(accs)
	}
	c := &Cache{
		classifier: classifier{space: space, lines: b.lines[:0]},
		accs:       accs,
		nonEmpty:   b.nonEmpty[:0],
		scratch:    b.scratch,
		vals:       b.vals,
		totalRows:  int64(space.Dataset().Table().NumRows()),
	}
	q := space.Query()
	if q.Fct != olap.Count {
		m, err := space.Dataset().Measure(q.Col)
		if err != nil {
			return nil, fmt.Errorf("sampling: %w", err)
		}
		c.measureVals = m.Values()
	}
	return c, nil
}

// Release ends the cache and hands its buffers to the next cache built.
// The cache itself is zeroed, so a call on it panics; a second Release does
// nothing.
func (c *Cache) Release() {
	if c.accs == nil {
		return
	}
	pool.Put(&buffers{accs: c.accs, nonEmpty: c.nonEmpty, scratch: c.scratch, vals: c.vals, lines: c.lines})
	*c = Cache{}
}

// TotalRows returns the table row count the cache's estimates scale
// against.
func (c *Cache) TotalRows() int64 { return c.totalRows }

// AbsorbAppend incrementally extends the cache to a newer snapshot of the
// same streaming table: next must be the same query's space over a
// snapshot that appended rows past the cache's current row bound. Only the
// delta rows [TotalRows, next.NumRows) go through InsertBatch — a new
// batch is a delta, not a rebuild — and they are read exhaustively,
// so when the base cache also read every row (background sample views,
// sequential full scans) the absorbed cache is bit-identical to one
// rebuilt from scratch over the new snapshot. When the base cache only
// sampled, absorbing introduces a disclosed bias toward the delta (every
// delta row is read, sampled base rows are not re-weighted); callers who
// need unbiased estimates under partial reads should rebuild instead.
func (c *Cache) AbsorbAppend(next *olap.Space) error {
	oldQ, newQ := c.space.Query(), next.Query()
	if oldQ.Fct != newQ.Fct || oldQ.Col != newQ.Col {
		return fmt.Errorf("sampling: absorb of a different query (%v %q vs %v %q)",
			newQ.Fct, newQ.Col, oldQ.Fct, oldQ.Col)
	}
	if next.Size() != c.space.Size() {
		return fmt.Errorf("sampling: absorb space has %d aggregates, cache has %d", next.Size(), c.space.Size())
	}
	if lo, _ := c.space.RowBounds(); lo != 0 {
		return fmt.Errorf("sampling: cannot absorb into a time-windowed cache")
	}
	if lo, _ := next.RowBounds(); lo != 0 {
		return fmt.Errorf("sampling: cannot absorb a time-windowed space")
	}
	newTotal := int64(next.Dataset().Table().NumRows())
	if newTotal < c.totalRows {
		return fmt.Errorf("sampling: absorb target has %d rows, cache was built over %d", newTotal, c.totalRows)
	}
	var measureVals []float64
	if newQ.Fct != olap.Count {
		m, err := next.Dataset().Measure(newQ.Col)
		if err != nil {
			return fmt.Errorf("sampling: %w", err)
		}
		measureVals = m.Values()
	}
	lo := int(c.totalRows)
	c.space = next
	c.measureVals = measureVals
	c.totalRows = newTotal
	c.insertRange(lo, int(newTotal))
	return nil
}

// insertRange inserts the rows [lo, hi) in row order through InsertBatch,
// rangeChunk rows at a time.
func (c *Cache) insertRange(lo, hi int) {
	rows := make([]int, 0, min(hi-lo, rangeChunk))
	for ; lo < hi; lo += len(rows) {
		rows = rows[:min(hi-lo, rangeChunk)]
		for i := range rows {
			rows[i] = lo + i
		}
		c.InsertBatch(rows)
	}
}

// rangeChunk is insertRange's batch size.
const rangeChunk = 4096

// InsertBatch considers a batch of rows for caching: classify, then fold,
// both on the caller. Rows outside the query scope are counted in NrRead but
// not cached; in-scope rows fold into their aggregate's moments in row
// order, so one batch and one-row batches of the same rows leave the same
// cache, and so does a sampler's row worker reading the same rows.
func (c *Cache) InsertBatch(rows []int) {
	if len(rows) == 0 {
		return
	}
	if cap(c.scratch) < len(rows) {
		c.scratch = make([]int32, len(rows))
	}
	if cap(c.vals) < len(rows) {
		c.vals = make([]float64, len(rows))
	}
	idx, vals := c.scratch[:len(rows)], c.vals[:len(rows)]
	c.classify(rows, idx, vals, &c.grand)
	c.fold(idx, vals)
}

// classify is the first half of an insert: the touch pass, one dense batch
// classification of rows into idx (-1 for a row out of scope), the gather
// of each in-scope row's measure into vals (1 for count queries; vals of
// rows out of scope are left as they were), and the grand moments' updates
// in row order. It writes nothing of the cache's but grand.
func (k *classifier) classify(rows []int, idx []int32, vals []float64, grand *stats.Accumulator) {
	k.touch(rows)
	k.space.ClassifyRows(rows, idx)
	for i, x := range idx {
		if x < 0 {
			continue
		}
		v := 1.0
		if k.measureVals != nil {
			v = k.measureVals[rows[i]]
		}
		vals[i] = v
		grand.Add(v)
	}
}

// fold is the second half of an insert: it counts the rows classify
// classified as read and folds each in-scope one into its aggregate's
// moments in row order. The grand moments are classify's.
func (c *Cache) fold(idx []int32, vals []float64) {
	c.nrRead += int64(len(idx))
	for i, x := range idx {
		if x < 0 {
			continue
		}
		c.inScope++
		acc := &c.accs[x]
		if acc.Count() == 0 {
			c.nonEmpty = append(c.nonEmpty, int(x))
		}
		acc.Add(vals[i])
		if c.values != nil {
			c.values[x] = append(c.values[x], vals[i])
		}
	}
}

// touch is the first-touch pass of classify: it loads one value per
// cache line the batch will read, in the measure and (olap.Space.TouchRows)
// in every code column, before anything depends on them. Classification and
// the measure gather take their misses one column after another, about
// 200 ns each at 5.3 M rows; issued together here they overlap. The pass is
// not free where there is nothing to overlap: a sequential drain of the
// table (the "sequential" leg of internal/table's BenchmarkSamplerReadRows)
// pays about a tenth more per row for it, 14-15.6 ns against 12.5-14.3
// (EXPERIMENTS.md, "Blocks, not rows").
func (k *classifier) touch(rows []int) {
	lo, hi := k.space.RowBounds()
	k.lines = k.lines[:0]
	line := -1
	for _, r := range rows {
		// 8 float64 measures share a 64-byte line (16 int32 codes do, and
		// touching their line twice costs a hit). Rows outside a time
		// window are never loaded, so they are not touched either.
		if r>>3 != line && r >= lo && r < hi {
			line = r >> 3
			k.lines = append(k.lines, r)
		}
	}
	k.sink += float64(k.space.TouchRows(k.lines))
	if k.measureVals != nil {
		for _, r := range k.lines {
			k.sink += k.measureVals[r]
		}
	}
}

// NrRead returns the total number of rows considered (CA.NRREAD).
func (c *Cache) NrRead() int64 { return c.nrRead }

// NrInScope returns the number of cached (in-scope) rows.
func (c *Cache) NrInScope() int64 { return c.inScope }

// NonEmpty returns the number of aggregates with at least one cached row.
func (c *Cache) NonEmpty() int { return len(c.nonEmpty) }

// EnableResample puts the cache in the paper's literal Algorithm 3 mode:
// every in-scope measure is retained per aggregate and Estimate takes its
// mean from a fixed-size subsample (size <= 0 selects DefaultResampleSize)
// instead of the running moments. The default estimator has the same O(1)
// cost but far lower variance, which matters for 0/1 measures like
// cancellation flags where a 10-row subsample quantizes estimates to
// multiples of 0.1; resample mode exists for the ablation benchmarks. Rows
// read before the switch cannot be recovered, so it fails once anything
// was read.
func (c *Cache) EnableResample(size int) error {
	if c.nrRead > 0 {
		return fmt.Errorf("sampling: resample mode enabled after %d rows were read", c.nrRead)
	}
	if size <= 0 {
		size = DefaultResampleSize
	}
	c.values = make([][]float64, len(c.accs))
	c.resampleSize = size
	return nil
}

// Resample returns a fixed-size subsample of the measures cached for
// aggregate a (CA.RESAMPLE). If at most the resample size are cached they
// are all returned; otherwise that many are drawn uniformly with
// replacement, keeping per-estimate cost constant as the cache grows. It
// panics on a cache that is not in resample mode, which has no rows to
// draw from.
func (c *Cache) Resample(a int, rng *rand.Rand) []float64 {
	if c.values == nil {
		panic("sampling: Resample on a cache without EnableResample")
	}
	vs := c.values[a]
	k := c.resampleSize
	if len(vs) <= k {
		out := make([]float64, len(vs))
		copy(out, vs)
		return out
	}
	out := make([]float64, k)
	for i := range out {
		out[i] = vs[rng.Intn(len(vs))]
	}
	return out
}

// PickAggregate selects a random aggregate for speech evaluation, following
// Algorithm 3: for count and sum queries every aggregate is eligible (an
// empty cache entry is itself information); for averages only aggregates
// with cached rows are eligible. It returns ok=false when no aggregate is
// eligible yet.
func (c *Cache) PickAggregate(rng *rand.Rand) (int, bool) {
	if c.space.Query().Fct == olap.Avg {
		if len(c.nonEmpty) == 0 {
			return 0, false
		}
		return c.nonEmpty[rng.Intn(len(c.nonEmpty))], true
	}
	if c.space.Size() == 0 || c.nrRead == 0 {
		return 0, false
	}
	return rng.Intn(c.space.Size()), true
}

// Estimate derives an unbiased estimate for aggregate a (CACHEESTIMATE):
// count is scaled up from the cache hit rate, sum multiplies the count
// estimate by the mean cached measure, and average is the mean cached
// measure. The mean comes from the O(1) running accumulator by default, or
// from a fixed-size subsample in resample mode (the paper's literal
// Algorithm 3). It returns ok=false when no estimate can be derived
// (average with an empty entry, or nothing read yet).
func (c *Cache) Estimate(a int, rng *rand.Rand) (float64, bool) {
	if c.nrRead == 0 {
		return 0, false
	}
	mean := func() float64 {
		if c.values != nil {
			return stats.Mean(c.Resample(a, rng))
		}
		return c.accs[a].Mean()
	}
	size := c.accs[a].Count()
	nrRows := float64(c.totalRows)
	countEst := nrRows * float64(size) / float64(c.nrRead)
	switch c.space.Query().Fct {
	case olap.Count:
		return countEst, true
	case olap.Sum:
		if size == 0 {
			return 0, true
		}
		return countEst * mean(), true
	case olap.Avg:
		if size == 0 {
			return 0, false
		}
		return mean(), true
	default:
		panic(fmt.Sprintf("sampling: unknown aggregation function %v", c.space.Query().Fct))
	}
}

// GrandEstimate estimates the aggregate value over the whole query scope
// from all cached rows: the baseline statement is derived from it. It
// returns ok=false until at least one in-scope row is cached (for count
// and sum, until at least one row was read). The running grand accumulator
// makes this O(1) per call no matter how full the cache is.
func (c *Cache) GrandEstimate() (float64, bool) {
	if c.nrRead == 0 {
		return 0, false
	}
	nrRows := float64(c.totalRows)
	countEst := nrRows * float64(c.inScope) / float64(c.nrRead)
	switch c.space.Query().Fct {
	case olap.Count:
		return countEst, true
	case olap.Sum, olap.Avg:
		if c.inScope == 0 {
			return 0, false
		}
		if c.space.Query().Fct == olap.Sum {
			return countEst * c.grand.Mean(), true
		}
		return c.grand.Mean(), true
	default:
		panic(fmt.Sprintf("sampling: unknown aggregation function %v", c.space.Query().Fct))
	}
}

// PooledConfidenceInterval returns a CLT confidence interval for the
// aggregate value over the union of the given aggregates, pooling their
// moments with the parallel Welford merge: O(len(aggs)) however many rows
// are cached, and equal to accumulating the pooled rows one by one up to
// floating-point rounding. It powers the Section 4.4 uncertainty
// extensions, which speak bounds for the scope of a sentence (all
// aggregates for the baseline, the refinement's scope otherwise). ok is
// false when no interval can be derived yet.
func (c *Cache) PooledConfidenceInterval(aggs []int, confidence float64) (stats.Interval, bool) {
	var acc stats.Accumulator
	for _, a := range aggs {
		acc.Merge(&c.accs[a])
	}
	return c.interval(&acc, confidence)
}

// ConfidenceInterval returns a CLT confidence interval for the value of
// aggregate a using all cached rows (not the fixed-size subsample: bounds
// are reported to users, so precision matters more than constant cost).
// ok is false when no interval can be derived.
func (c *Cache) ConfidenceInterval(a int, confidence float64) (stats.Interval, bool) {
	return c.interval(&c.accs[a], confidence)
}

// interval derives the confidence interval of the query's aggregation
// function over the rows whose moments acc holds.
func (c *Cache) interval(acc *stats.Accumulator, confidence float64) (stats.Interval, bool) {
	switch c.space.Query().Fct {
	case olap.Avg:
		if acc.Count() == 0 {
			return stats.Interval{}, false
		}
		return stats.MeanConfidenceInterval(acc.Mean(), acc.StdDev(), acc.Count(), confidence), true
	case olap.Count:
		if c.nrRead == 0 {
			return stats.Interval{}, false
		}
		nrRows := float64(c.totalRows)
		p := stats.ProportionConfidenceInterval(acc.Count(), c.nrRead, confidence)
		return stats.Interval{Lo: p.Lo * nrRows, Hi: p.Hi * nrRows}, true
	case olap.Sum:
		if c.nrRead == 0 || acc.Count() == 0 {
			return stats.Interval{}, false
		}
		nrRows := float64(c.totalRows)
		mean := stats.MeanConfidenceInterval(acc.Mean(), acc.StdDev(), acc.Count(), confidence)
		scale := nrRows * float64(acc.Count()) / float64(c.nrRead)
		return stats.Interval{Lo: mean.Lo * scale, Hi: mean.Hi * scale}, true
	default:
		panic(fmt.Sprintf("sampling: unknown aggregation function %v", c.space.Query().Fct))
	}
}
