package sampling

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/olap"
)

func TestResampleFixedSize(t *testing.T) {
	s := flightsSpace(t, olap.Avg)
	c, _ := NewCache(s)
	if err := c.EnableResample(0); err != nil {
		t.Fatalf("EnableResample: %v", err)
	}
	rng := rand.New(rand.NewSource(1))
	insertRows(c, 10000)
	// Find an aggregate with plenty of entries.
	big := -1
	for a := 0; a < s.Size(); a++ {
		if c.Size(a) > DefaultResampleSize {
			big = a
			break
		}
	}
	if big < 0 {
		t.Fatal("expected a well-populated aggregate")
	}
	v := c.Resample(big, rng)
	if len(v) != DefaultResampleSize {
		t.Errorf("resample size = %d, want %d", len(v), DefaultResampleSize)
	}
	// Sparse aggregate: returns everything it has.
	c2, _ := NewCache(s)
	if err := c2.EnableResample(0); err != nil {
		t.Fatalf("EnableResample: %v", err)
	}
	c2.InsertBatch([]int{0})
	idx, ok := c2.PickAggregate(rng)
	if !ok {
		t.Fatal("one cached row should make one aggregate eligible")
	}
	if got := c2.Resample(idx, rng); len(got) != 1 {
		t.Errorf("sparse resample size = %d, want 1", len(got))
	}
}

// Resample mode is decided before the first read: rows seen earlier were
// folded into moments and cannot be handed back.
func TestEnableResampleAfterInsertFails(t *testing.T) {
	c, _ := NewCache(flightsSpace(t, olap.Avg))
	c.InsertBatch([]int{0})
	if err := c.EnableResample(10); err == nil {
		t.Fatal("EnableResample after an insert should fail")
	}
	defer func() {
		if recover() == nil {
			t.Error("Resample on a cache without EnableResample should panic")
		}
	}()
	c.Resample(0, rand.New(rand.NewSource(1)))
}

// resample is Cache.Resample over the reference's stored rows.
func (r *refCache) resample(a, k int, rng *rand.Rand) []float64 {
	vs := r.values[a]
	if len(vs) <= k {
		return append([]float64(nil), vs...)
	}
	out := make([]float64, k)
	for i := range out {
		out[i] = vs[rng.Intn(len(vs))]
	}
	return out
}

// TestResampleModeMatchesReference feeds a resample-mode cache through
// every writer and requires Resample to hand out what the row-storing
// reference would: all rows in insertion order when they fit the size, the
// same draws from the same positions otherwise.
func TestResampleModeMatchesReference(t *testing.T) {
	for _, fct := range []olap.AggFunc{olap.Avg, olap.Sum, olap.Count} {
		for seed := int64(1); seed <= 12; seed++ {
			size := DefaultResampleSize
			if seed%2 == 0 {
				size = 1 << 20 // every aggregate fits: the full store, in order
			}
			sc := newScenario(t, seed, fct)
			c, err := NewCache(sc.space)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.EnableResample(size); err != nil {
				t.Fatal(err)
			}
			ref := newRefCache(t, sc.space)
			sc.drive(t, c, ref, func(stage string) {
				rc, rr := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				for a := 0; a < c.Space().Size(); a++ {
					got, want := c.Resample(a, rc), ref.resample(a, size, rr)
					if len(got) != len(want) {
						t.Fatalf("%v seed %d %s: aggregate %d resamples %d rows, reference %d",
							fct, seed, stage, a, len(got), len(want))
					}
					for i := range got {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%v seed %d %s: aggregate %d row %d = %v, reference %v",
								fct, seed, stage, a, i, got[i], want[i])
						}
					}
				}
			})
		}
	}
}
