package sampling

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/dimension"
	"repro/internal/olap"
	"repro/internal/stats"
	"repro/internal/table"
)

// refCache is the cache as the paper's Algorithm 3 literally describes it
// and as this package implemented it until the cache became a table of
// moments: every in-scope measure is stored per aggregate, sizes are slice
// lengths and pooled bounds make a pass over the stored rows. It is the
// reference the moment-only Cache is compared against.
type refCache struct {
	space       *olap.Space
	measureVals []float64 // nil for count queries
	values      [][]float64
	accs        []stats.Accumulator
	grand       stats.Accumulator
	totalRows   int64
	nonEmpty    []int
	nrRead      int64
	inScope     int64
}

func newRefCache(t *testing.T, space *olap.Space) *refCache {
	t.Helper()
	return &refCache{
		space:       space,
		measureVals: measureValsOf(t, space),
		values:      make([][]float64, space.Size()),
		accs:        make([]stats.Accumulator, space.Size()),
		totalRows:   int64(space.Dataset().Table().NumRows()),
	}
}

func measureValsOf(t *testing.T, space *olap.Space) []float64 {
	t.Helper()
	q := space.Query()
	if q.Fct == olap.Count {
		return nil
	}
	m, err := space.Dataset().Measure(q.Col)
	if err != nil {
		t.Fatal(err)
	}
	return m.Values()
}

func (r *refCache) add(idx int, v float64) {
	r.inScope++
	if len(r.values[idx]) == 0 {
		r.nonEmpty = append(r.nonEmpty, idx)
	}
	r.values[idx] = append(r.values[idx], v)
	r.accs[idx].Add(v)
	r.grand.Add(v)
}

func (r *refCache) Insert(row int) {
	r.nrRead++
	idx, ok := r.space.ClassifyRow(row)
	if !ok {
		return
	}
	v := 1.0
	if r.measureVals != nil {
		v = r.measureVals[row]
	}
	r.add(idx, v)
}

func (r *refCache) InsertBatch(rows []int) {
	for _, row := range rows {
		r.Insert(row)
	}
}

// AbsorbAppend mirrors Cache.AbsorbAppend's refusal of time-windowed
// spaces; the other rejections are not exercised by the scenarios.
func (r *refCache) AbsorbAppend(t *testing.T, next *olap.Space) error {
	if lo, _ := r.space.RowBounds(); lo != 0 {
		return fmt.Errorf("windowed cache")
	}
	if lo, _ := next.RowBounds(); lo != 0 {
		return fmt.Errorf("windowed space")
	}
	lo, hi := int(r.totalRows), next.Dataset().Table().NumRows()
	r.space = next
	r.measureVals = measureValsOf(t, next)
	r.totalRows = int64(hi)
	for row := lo; row < hi; row++ {
		r.Insert(row)
	}
	return nil
}

func (r *refCache) estimate(a int) (float64, bool) {
	if r.nrRead == 0 {
		return 0, false
	}
	size := len(r.values[a])
	countEst := float64(r.totalRows) * float64(size) / float64(r.nrRead)
	switch r.space.Query().Fct {
	case olap.Count:
		return countEst, true
	case olap.Sum:
		if size == 0 {
			return 0, true
		}
		return countEst * r.accs[a].Mean(), true
	default:
		if size == 0 {
			return 0, false
		}
		return r.accs[a].Mean(), true
	}
}

func (r *refCache) grandEstimate() (float64, bool) {
	if r.nrRead == 0 {
		return 0, false
	}
	countEst := float64(r.totalRows) * float64(r.inScope) / float64(r.nrRead)
	switch r.space.Query().Fct {
	case olap.Count:
		return countEst, true
	case olap.Sum:
		if r.inScope == 0 {
			return 0, false
		}
		return countEst * r.grand.Mean(), true
	default:
		if r.inScope == 0 {
			return 0, false
		}
		return r.grand.Mean(), true
	}
}

func (r *refCache) pickAggregate(rng *rand.Rand) (int, bool) {
	if r.space.Query().Fct == olap.Avg {
		if len(r.nonEmpty) == 0 {
			return 0, false
		}
		return r.nonEmpty[rng.Intn(len(r.nonEmpty))], true
	}
	if r.space.Size() == 0 || r.nrRead == 0 {
		return 0, false
	}
	return rng.Intn(r.space.Size()), true
}

// interval is the per-function interval formula over an accumulator.
func (r *refCache) interval(acc *stats.Accumulator, confidence float64) (stats.Interval, bool) {
	nrRows := float64(r.totalRows)
	switch r.space.Query().Fct {
	case olap.Avg:
		if acc.Count() == 0 {
			return stats.Interval{}, false
		}
		return stats.MeanConfidenceInterval(acc.Mean(), acc.StdDev(), acc.Count(), confidence), true
	case olap.Count:
		if r.nrRead == 0 {
			return stats.Interval{}, false
		}
		p := stats.ProportionConfidenceInterval(acc.Count(), r.nrRead, confidence)
		return stats.Interval{Lo: p.Lo * nrRows, Hi: p.Hi * nrRows}, true
	default:
		if r.nrRead == 0 || acc.Count() == 0 {
			return stats.Interval{}, false
		}
		mean := stats.MeanConfidenceInterval(acc.Mean(), acc.StdDev(), acc.Count(), confidence)
		scale := nrRows * float64(acc.Count()) / float64(r.nrRead)
		return stats.Interval{Lo: mean.Lo * scale, Hi: mean.Hi * scale}, true
	}
}

func (r *refCache) confidenceInterval(a int, confidence float64) (stats.Interval, bool) {
	return r.interval(&r.accs[a], confidence)
}

// pooledConfidenceInterval accumulates the stored rows of the scope one by
// one, the pass the moment-only cache replaces with a Welford merge.
func (r *refCache) pooledConfidenceInterval(aggs []int, confidence float64) (stats.Interval, bool) {
	var acc stats.Accumulator
	for _, a := range aggs {
		for _, v := range r.values[a] {
			acc.Add(v)
		}
	}
	return r.interval(&acc, confidence)
}

// scenario is one random query over a streaming flights table, plus the
// random write schedule drive replays into a Cache and a refCache alike.
type scenario struct {
	rng   *rand.Rand
	base  *olap.Dataset
	live  *table.Table
	query olap.Query
	space *olap.Space
	clock time.Time
}

// newScenario draws a query with 1–3 group-by dimensions at random levels,
// half the time a filter and a third of the time a trailing time window,
// over a 3 000-row table that already took two timed append batches (so a
// window cuts somewhere inside it).
func newScenario(t *testing.T, seed int64, fct olap.AggFunc) *scenario {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	base, err := datagen.Flights(datagen.FlightsConfig{Rows: 3000, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	sc := &scenario{rng: rng, base: base, clock: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
	sc.live, err = base.Table().AppendableCopy(sc.clock)
	if err != nil {
		t.Fatal(err)
	}
	sc.appendRows(t, 150+rng.Intn(200))
	sc.appendRows(t, 150+rng.Intn(200))

	hs := append([]*dimension.Hierarchy(nil), base.Hierarchies()...)
	rng.Shuffle(len(hs), func(i, j int) { hs[i], hs[j] = hs[j], hs[i] })
	q := olap.Query{Fct: fct, Col: "cancelled"}
	if fct == olap.Count {
		q.Col = ""
	}
	for _, h := range hs[:1+rng.Intn(len(hs))] {
		q.GroupBy = append(q.GroupBy, olap.GroupBy{Hierarchy: h, Level: 1 + rng.Intn(h.Depth())})
	}
	if rng.Intn(2) == 0 {
		// The last shuffled hierarchy: grouped only in three-dimension queries.
		ms := hs[len(hs)-1].MembersAt(1)
		q.Filters = []*dimension.Member{ms[rng.Intn(len(ms))]}
	}
	if rng.Intn(3) == 0 {
		q.Window = olap.Window{Last: []time.Duration{30 * time.Second, 90 * time.Second, time.Hour}[rng.Intn(3)]}
	}
	sc.query = q
	sc.space = sc.snapshotSpace(t)
	return sc
}

// appendRows advances the stream clock a minute and appends n rows.
func (sc *scenario) appendRows(t *testing.T, n int) {
	t.Helper()
	sc.clock = sc.clock.Add(time.Minute)
	appendFlightRows(t, sc.live, n, sc.clock)
}

// snapshotSpace compiles the scenario's query over the table as it stands.
func (sc *scenario) snapshotSpace(t *testing.T) *olap.Space {
	t.Helper()
	d, err := olap.NewDataset(sc.live.Snapshot(), sc.base.Hierarchies()...)
	if err != nil {
		t.Fatal(err)
	}
	s, err := olap.NewSpace(d, sc.query)
	if err != nil {
		t.Fatalf("NewSpace(%+v): %v", sc.query, err)
	}
	return s
}

// drive feeds c and ref the same rows through the same writers: batches of
// random size, each in one InsertBatch or in one-row batches, with one
// AbsorbAppend of freshly appended rows in the middle. check runs after
// the absorb and at the end.
func (sc *scenario) drive(t *testing.T, c *Cache, ref *refCache, check func(stage string)) {
	t.Helper()
	write := func(batches int) {
		n := c.Space().Dataset().Table().NumRows()
		for b := 0; b < batches; b++ {
			rows := make([]int, 1+sc.rng.Intn(300))
			for i := range rows {
				rows[i] = sc.rng.Intn(n)
			}
			if sc.rng.Intn(2) == 0 {
				c.InsertBatch(rows)
				ref.InsertBatch(rows)
			} else {
				for i, row := range rows {
					c.InsertBatch(rows[i : i+1])
					ref.Insert(row)
				}
			}
		}
	}
	write(1 + sc.rng.Intn(12))

	sc.appendRows(t, 100+sc.rng.Intn(200))
	next := sc.snapshotSpace(t)
	errC, errRef := c.AbsorbAppend(next), ref.AbsorbAppend(t, next)
	if (errC == nil) != (errRef == nil) {
		t.Fatalf("AbsorbAppend: cache %v, reference %v", errC, errRef)
	}
	check("after absorb")

	write(1 + sc.rng.Intn(12))
	check("at end")
}

// TestCacheMatchesStoredRowsReference drives the moment-only cache and the
// row-storing reference through random scenarios and requires every
// readout the planner uses to agree (checkMatchesReference).
func TestCacheMatchesStoredRowsReference(t *testing.T) {
	for _, fct := range []olap.AggFunc{olap.Avg, olap.Sum, olap.Count} {
		for seed := int64(1); seed <= 25; seed++ {
			sc := newScenario(t, seed, fct)
			c, err := NewCache(sc.space)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefCache(t, sc.space)
			sc.drive(t, c, ref, func(stage string) {
				checkMatchesReference(t, fmt.Sprintf("%v seed %d %s", fct, seed, stage), c, ref, seed, sc.rng)
			})
		}
	}
}

// checkMatchesReference fails t unless every readout the planner uses agrees
// between c and ref to the last bit; only the pooled bound, which merges
// moments where the reference re-accumulates rows, is allowed floating-point
// rounding. rng draws the pooled scopes.
func checkMatchesReference(t *testing.T, at string, c *Cache, ref *refCache, seed int64, rng *rand.Rand) {
	t.Helper()
	const pooledTol = 1e-9
	if c.NrRead() != ref.nrRead || c.NrInScope() != ref.inScope || c.NonEmpty() != len(ref.nonEmpty) {
		t.Fatalf("%s: read/in-scope/non-empty %d/%d/%d, reference %d/%d/%d", at,
			c.NrRead(), c.NrInScope(), c.NonEmpty(), ref.nrRead, ref.inScope, len(ref.nonEmpty))
	}
	grand, ok := c.GrandEstimate()
	wantGrand, wantOK := ref.grandEstimate()
	if ok != wantOK || math.Float64bits(grand) != math.Float64bits(wantGrand) {
		t.Fatalf("%s: grand estimate %v/%v, reference %v/%v", at, grand, ok, wantGrand, wantOK)
	}
	size := c.Space().Size()
	for a := 0; a < size; a++ {
		if c.Size(a) != len(ref.values[a]) {
			t.Fatalf("%s: Size(%d) = %d, reference %d", at, a, c.Size(a), len(ref.values[a]))
		}
		est, ok := c.Estimate(a, nil)
		wantEst, wantOK := ref.estimate(a)
		if ok != wantOK || math.Float64bits(est) != math.Float64bits(wantEst) {
			t.Fatalf("%s: estimate %d = %v/%v, reference %v/%v", at, a, est, ok, wantEst, wantOK)
		}
		iv, ok := c.ConfidenceInterval(a, 0.95)
		wantIv, wantOK := ref.confidenceInterval(a, 0.95)
		if ok != wantOK || math.Float64bits(iv.Lo) != math.Float64bits(wantIv.Lo) ||
			math.Float64bits(iv.Hi) != math.Float64bits(wantIv.Hi) {
			t.Fatalf("%s: interval %d = %v/%v, reference %v/%v", at, a, iv, ok, wantIv, wantOK)
		}
	}
	// The same draws pick the same aggregates: nonEmpty keeps its order.
	rc, rr := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	for i := 0; i < 20; i++ {
		got, ok := c.PickAggregate(rc)
		want, wantOK := ref.pickAggregate(rr)
		if got != want || ok != wantOK {
			t.Fatalf("%s: pick %d = %d/%v, reference %d/%v", at, i, got, ok, want, wantOK)
		}
	}
	for i := 0; i < 8; i++ {
		scope := rng.Perm(size)[:1+rng.Intn(size)]
		got, ok := c.PooledConfidenceInterval(scope, 0.95)
		want, wantOK := ref.pooledConfidenceInterval(scope, 0.95)
		tol := pooledTol * math.Max(math.Abs(want.Lo), math.Abs(want.Hi))
		if ok != wantOK || math.Abs(got.Lo-want.Lo) > tol || math.Abs(got.Hi-want.Hi) > tol {
			t.Fatalf("%s: pooled interval over %d aggregates = %v/%v, reference %v/%v",
				at, len(scope), got, ok, want, wantOK)
		}
	}
}

// TestInsertBatchSteadyStateAllocs pins the point of keeping moments, not
// rows: once the scratch buffer and the non-empty list have grown, an
// insert allocates nothing. The 200 batches are one AllocsPerRun run
// because it reports whole allocations per run, which would round the
// amortised regrowth of stored rows down to zero.
func TestInsertBatchSteadyStateAllocs(t *testing.T) {
	s := flightsSpace(t, olap.Avg)
	c, err := NewCache(s)
	if err != nil {
		t.Fatal(err)
	}
	fillAll(c)
	rng := rand.New(rand.NewSource(1))
	rows := make([]int, 64)
	n := s.Dataset().Table().NumRows()
	allocs := testing.AllocsPerRun(1, func() {
		for b := 0; b < 200; b++ {
			for i := range rows {
				rows[i] = rng.Intn(n)
			}
			c.InsertBatch(rows)
		}
	})
	if allocs != 0 {
		t.Errorf("200 64-row InsertBatch calls on a warmed cache allocate %v times, want 0", allocs)
	}
}

// TestWorkerMatchesStoredRowsReference: a started sampler's cache, which
// folds what its row worker classified, matches the reference, and a cache
// that InsertBatch filled with the same rows bit for bit, after every read.
// The reads cycle through sizes that end inside a chunk, at its end and past
// it, and the last runs the stream dry, so its final chunk is a short one.
func TestWorkerMatchesStoredRowsReference(t *testing.T) {
	sizes := []int{1, 63, 64, 65, 4096}
	windowed, filtered := 0, 0
	for _, fct := range []olap.AggFunc{olap.Avg, olap.Sum, olap.Count} {
		for seed := int64(1); seed <= 25; seed++ {
			sc := newScenario(t, seed, fct)
			if sc.query.Window.Last > 0 {
				windowed++
			}
			if len(sc.query.Filters) > 0 {
				filtered++
			}
			tab := sc.space.Dataset().Table()
			smp, err := NewSamplerWithScanner(sc.space, table.NewRandomScanner(tab, rand.New(rand.NewSource(seed))))
			if err != nil {
				t.Fatal(err)
			}
			twin, err := NewCache(sc.space)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefCache(t, sc.space)
			rows := table.NewRandomScanner(tab, rand.New(rand.NewSource(seed)))
			buf := make([]int, slices.Max(sizes))
			func() {
				smp.Start()
				defer smp.Stop()
				for i := int(seed); ; i++ {
					n := sizes[i%len(sizes)]
					got, want := smp.ReadRows(n), table.FillBatch(rows, buf[:n])
					at := fmt.Sprintf("%v seed %d read %d of %d", fct, seed, i-int(seed), n)
					if got != want {
						t.Fatalf("%s: the worker read %d rows, the stream had %d", at, got, want)
					}
					twin.InsertBatch(buf[:got])
					ref.InsertBatch(buf[:got])
					checkSameCache(t, at, smp.Cache(), twin)
					checkMatchesReference(t, at, smp.Cache(), ref, seed, sc.rng)
					if got < n {
						return
					}
				}
			}()
		}
	}
	if windowed == 0 || filtered == 0 {
		t.Errorf("%d windowed and %d filtered scenarios, want some of each", windowed, filtered)
	}
}

// checkSameCache fails t unless got and want hold the same moments bit for
// bit, count the same rows and list their non-empty aggregates in the same
// order.
func checkSameCache(t *testing.T, at string, got, want *Cache) {
	t.Helper()
	if got.nrRead != want.nrRead || got.inScope != want.inScope || !slices.Equal(got.nonEmpty, want.nonEmpty) {
		t.Fatalf("%s: read/in-scope/non-empty %d/%d/%v, InsertBatch %d/%d/%v", at,
			got.nrRead, got.inScope, got.nonEmpty, want.nrRead, want.inScope, want.nonEmpty)
	}
	if !sameMoments(&got.grand, &want.grand) {
		t.Fatalf("%s: grand moments %+v, InsertBatch %+v", at, got.grand, want.grand)
	}
	for a := range got.accs {
		if !sameMoments(&got.accs[a], &want.accs[a]) {
			t.Fatalf("%s: aggregate %d moments %+v, InsertBatch %+v", at, a, got.accs[a], want.accs[a])
		}
	}
}

// sameMoments reports whether a and b agree to the bit in every moment.
func sameMoments(a, b *stats.Accumulator) bool {
	return a.Count() == b.Count() &&
		math.Float64bits(a.Mean()) == math.Float64bits(b.Mean()) &&
		math.Float64bits(a.Sum()) == math.Float64bits(b.Sum()) &&
		math.Float64bits(a.Variance()) == math.Float64bits(b.Variance())
}
