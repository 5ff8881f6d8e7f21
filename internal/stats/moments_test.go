package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	if a.Count() != 0 || a.Mean() != 0 || a.Variance() != 0 {
		t.Fatal("zero accumulator should report zeros")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if a.Count() != 8 {
		t.Errorf("count = %d, want 8", a.Count())
	}
	if math.Abs(a.Mean()-5) > 1e-12 {
		t.Errorf("mean = %v, want 5", a.Mean())
	}
	// Population variance of this classic set is 4; sample variance 32/7.
	if math.Abs(a.Variance()-32.0/7) > 1e-12 {
		t.Errorf("variance = %v, want %v", a.Variance(), 32.0/7)
	}
}

func TestAccumulatorSingleValue(t *testing.T) {
	var a Accumulator
	a.Add(3.5)
	if a.Variance() != 0 {
		t.Errorf("variance of single value = %v, want 0", a.Variance())
	}
	if a.Mean() != 3.5 {
		t.Errorf("mean = %v, want 3.5", a.Mean())
	}
}

func TestAccumulatorMergeMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var whole, left, right Accumulator
	for i := 0; i < 1000; i++ {
		x := rng.NormFloat64()*3 + 1
		whole.Add(x)
		if i < 400 {
			left.Add(x)
		} else {
			right.Add(x)
		}
	}
	left.Merge(&right)
	if left.Count() != whole.Count() {
		t.Fatalf("merged count = %d, want %d", left.Count(), whole.Count())
	}
	if math.Abs(left.Mean()-whole.Mean()) > 1e-9 {
		t.Errorf("merged mean = %v, want %v", left.Mean(), whole.Mean())
	}
	if math.Abs(left.Variance()-whole.Variance()) > 1e-9 {
		t.Errorf("merged variance = %v, want %v", left.Variance(), whole.Variance())
	}
}

func TestAccumulatorMergeEmptyCases(t *testing.T) {
	var a, b Accumulator
	a.Add(1)
	a.Add(3)
	before := a
	a.Merge(&b) // merging empty changes nothing
	if a != before {
		t.Error("merging an empty accumulator should be a no-op")
	}
	b.Merge(&a) // merging into empty copies
	if b.Mean() != a.Mean() || b.Count() != a.Count() {
		t.Error("merging into empty should copy the source")
	}
}

func TestMeanVarianceHelpers(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) should be 0")
	}
	if Variance([]float64{1}) != 0 {
		t.Error("Variance of one element should be 0")
	}
	xs := []float64{1, 2, 3, 4}
	if got := Mean(xs); got != 2.5 {
		t.Errorf("Mean = %v, want 2.5", got)
	}
	if got := Variance(xs); math.Abs(got-5.0/3) > 1e-12 {
		t.Errorf("Variance = %v, want %v", got, 5.0/3)
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{3, 1}, 2},
		{[]float64{9, 1, 5}, 5},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{27.2, 1.16, 1.16, 1.16, 5.9, 1.2, 1.6, 50}, 1.4},
	}
	for _, c := range cases {
		if got := Median(c.in); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Median must not modify its input")
	}
}

// Property: accumulator mean always lies within [min, max] of inputs.
func TestAccumulatorMeanBoundedProperty(t *testing.T) {
	f := func(xs []float64) bool {
		var clean []float64
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		var a Accumulator
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, x := range clean {
			a.Add(x)
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		return a.Mean() >= lo-1e-6 && a.Mean() <= hi+1e-6 && a.Variance() >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
