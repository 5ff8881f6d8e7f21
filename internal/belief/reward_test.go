package belief

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dimension"
	"repro/internal/speech"
)

// randomSpeeches builds a mix of generator speeches (precomputed Scope
// bitsets) at depths 0..MaxFragments by extending random refinement chains.
func randomSpeeches(e *env, rng *rand.Rand, count int) []*speech.Speech {
	grand := e.result.GrandValue()
	bases := e.gen.BaselineCandidates(grand)
	var out []*speech.Speech
	for i := 0; i < count; i++ {
		sp := &speech.Speech{Baseline: bases[rng.Intn(len(bases))]}
		depth := rng.Intn(e.gen.Prefs.MaxFragments + 1)
		for d := 0; d < depth; d++ {
			menu := e.gen.Refinements(sp.Refinements)
			if len(menu) == 0 {
				break
			}
			sp = sp.Extend(menu[rng.Intn(len(menu))])
		}
		out = append(out, sp)
	}
	return out
}

// TestRewardKernelBitIdentical pins the kernel's exactness contract:
// RewardKernel.Reward equals Model.Reward to the last bit for generator
// speeches, hand-built speeches (nil Scope, InScope fallback), and the
// baseline-free degenerate speech, over every aggregate and randomized
// estimates. Repeated calls must stay identical (memoization must not
// drift).
func TestRewardKernelBitIdentical(t *testing.T) {
	e := newEnv(t)
	rng := rand.New(rand.NewSource(99))
	speeches := randomSpeeches(e, rng, 40)
	// Hand-built refinement without the generator's Scope bitset: the
	// kernel must take the space.InScope fallback path.
	hand := e.baselineSpeech(e.result.GrandValue()).Extend(&speech.Refinement{
		Preds:   []*dimension.Member{e.airport.FindMember("the North East")},
		Dir:     speech.Increase,
		Percent: 50,
	})
	speeches = append(speeches, hand, &speech.Speech{})

	k := e.model.NewRewardKernel()
	for si, sp := range speeches {
		for pass := 0; pass < 2; pass++ { // second pass hits the memo
			for a := 0; a < e.space.Size(); a++ {
				est := e.result.GrandValue() * (2*rng.Float64() - 0.5)
				want := e.model.Reward(sp, a, est)
				got := k.Reward(sp, a, est)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("speech %d pass %d agg %d est %v: kernel %v (%#x), model %v (%#x)",
						si, pass, a, est, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	}
}

// TestRewardKernelBucketStepOverride checks the kernel scores under a
// bucket step other than the one NewModel derives the same way Model.bucket
// reads it.
func TestRewardKernelBucketStepOverride(t *testing.T) {
	e := newEnv(t)
	e.model.bucketStep = 0.005
	rng := rand.New(rand.NewSource(7))
	k := e.model.NewRewardKernel()
	sp := e.baselineSpeech(e.result.GrandValue())
	for a := 0; a < e.space.Size(); a++ {
		est := rng.Float64() / 10
		want := e.model.Reward(sp, a, est)
		got := k.Reward(sp, a, est)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("agg %d: kernel %v, model %v", a, got, want)
		}
	}
}
