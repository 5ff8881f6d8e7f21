package core

import (
	"testing"
)

// TestResampleEstimatesKnob verifies the ablation wiring: the resample
// mode must run and, on a 0/1 measure, generally hurt quality relative to
// the running-mean default.
func TestResampleEstimatesKnob(t *testing.T) {
	d, q := flightsQuery(t, 20000, 95)
	var defSum, resSum float64
	for seed := int64(0); seed < 3; seed++ {
		cfg := testConfig(seed)
		out, err := NewHolistic(d, q, cfg).Vocalize()
		if err != nil {
			t.Fatalf("default: %v", err)
		}
		quality, _ := ExactQuality(d, q, out, cfg)
		defSum += quality

		rcfg := cfg
		rcfg.ResampleSize = 10
		out, err = NewHolistic(d, q, rcfg).Vocalize()
		if err != nil {
			t.Fatalf("resample: %v", err)
		}
		quality, _ = ExactQuality(d, q, out, rcfg)
		resSum += quality
	}
	if resSum > defSum {
		t.Errorf("10-sample resample total quality %v should not beat running mean %v",
			resSum, defSum)
	}

}

// TestUniformPolicyKnob verifies the UCT-off wiring runs end to end.
func TestUniformPolicyKnob(t *testing.T) {
	d, q := flightsQuery(t, 20000, 96)
	cfg := testConfig(40)
	cfg.UniformTreePolicy = true
	out, err := NewHolistic(d, q, cfg).Vocalize()
	if err != nil {
		t.Fatalf("uniform policy: %v", err)
	}
	if out.Speech.Baseline == nil {
		t.Error("uniform policy should still produce a speech")
	}
}

// TestDisjointScopesKnob verifies the absolute-refinement emulation: no
// speech may contain overlapping refinement scopes.
func TestDisjointScopesKnob(t *testing.T) {
	d, q := flightsQuery(t, 20000, 97)
	cfg := testConfig(41)
	cfg.DisjointScopes = true
	out, err := NewHolistic(d, q, cfg).Vocalize()
	if err != nil {
		t.Fatalf("disjoint scopes: %v", err)
	}
	refs := out.Speech.Refinements
	for i := 0; i < len(refs); i++ {
		for j := i + 1; j < len(refs); j++ {
			// Same-hierarchy siblings are fine; cross-hierarchy pairs
			// always overlap and must not appear.
			if refs[i].Preds[0].Hierarchy() != refs[j].Preds[0].Hierarchy() {
				t.Errorf("overlapping scopes in disjoint mode: %q / %q",
					refs[i].Text(), refs[j].Text())
			}
		}
	}
}
