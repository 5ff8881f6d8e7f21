package core

import (
	"fmt"
	"testing"

	"repro/internal/datagen"
	"repro/internal/olap"
	"repro/internal/speech"
)

// oracleMaxChars keeps the enumeration of every case without a fragment
// limit under 100 000 speeches and still lets three refinements fit: Optimal
// scores 72 738 speeches there, against 12 306 under a limit of two, and its
// best speech has three refinements. At the paper's 300 characters it would
// score 371 346 on the region query.
const oracleMaxChars = 266

// TestOptimalBoundsEveryPreference is a differential oracle over the
// preferences: on the region query (five aggregates), Holistic, Unmerged and
// Optimal plan under each fragment limit, those at or below zero included
// (no limit, as Speech.Valid reads them), with DisjointScopes off and on.
// Every speech must be valid under the normalized preferences, and no
// sampled speech may score above Optimal's exact maximum, since Optimal
// searches the grammar's whole space, the planner's tree included.
func TestOptimalBoundsEveryPreference(t *testing.T) {
	d, err := datagen.Flights(datagen.FlightsConfig{Rows: 50000, Seed: 1})
	if err != nil {
		t.Fatalf("Flights: %v", err)
	}
	q := olap.Query{
		Fct: olap.Avg, Col: "cancelled",
		ColDescription: "average cancellation probability",
		GroupBy:        []olap.GroupBy{{Hierarchy: d.HierarchyByName("start airport"), Level: 1}},
	}
	for _, disjoint := range []bool{false, true} {
		for _, frags := range []int{-5, -1, 0, 1, 2, 3} {
			t.Run(fmt.Sprintf("disjoint=%v/frags=%d", disjoint, frags), func(t *testing.T) {
				cfg := DaemonConfig(1)
				cfg.Prefs = speech.Prefs{MaxChars: oracleMaxChars, MaxFragments: frags, SigDigits: 1}
				cfg.DisjointScopes = disjoint
				prefs := cfg.Normalize().Prefs
				var optQ float64
				for _, v := range []Vocalizer{NewOptimal(d, q, cfg), NewHolistic(d, q, cfg), NewUnmerged(d, q, cfg)} {
					out, err := v.Vocalize()
					if err != nil {
						t.Fatalf("%s: %v", v.Name(), err)
					}
					if !out.Speech.Valid(prefs) {
						t.Errorf("%s speaks an invalid speech: %q (%d chars, %d refinements)",
							v.Name(), out.Speech.MainText(), out.Speech.MainLen(), len(out.Speech.Refinements))
					}
					quality, err := ExactQuality(d, q, out, cfg)
					if err != nil {
						t.Fatalf("%s: ExactQuality: %v", v.Name(), err)
					}
					if v.Name() == "optimal" {
						optQ = quality
						t.Logf("optimal scored %d speeches, quality %.4f, %d refinements",
							out.SpeechesScored, quality, len(out.Speech.Refinements))
						if frags <= 0 && out.SpeechesScored >= 100000 {
							t.Errorf("optimal scored %d speeches, want fewer than 100 000", out.SpeechesScored)
						}
						continue
					}
					if quality > optQ {
						t.Errorf("%s quality %.6f exceeds optimal's %.6f: %q", v.Name(), quality, optQ, out.Speech.MainText())
					}
				}
			})
		}
	}
}
