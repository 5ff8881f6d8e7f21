package speech

import (
	"testing"

	"repro/internal/dimension"
)

// TestTimeConstraintShortensSpeeches checks the paper's length bound, a
// playback time at 15 characters a second, stated in characters.
func TestTimeConstraintShortensSpeeches(t *testing.T) {
	airport, date := testDims(t)
	ne := airport.FindMember("the North East")
	winter := date.FindMember("Winter")
	sp := &Speech{
		Baseline: &Baseline{Value: 0.02, AggName: "average cancellation probability", Format: PercentFormat},
		Refinements: []*Refinement{
			{Preds: []*dimension.Member{ne}, Dir: Increase, Percent: 50},
			{Preds: []*dimension.Member{winter}, Dir: Increase, Percent: 100},
		},
	}
	loose := Prefs{MaxChars: 60 * 15, MaxFragments: 5}
	if !sp.Valid(loose) {
		t.Error("60 seconds (900 chars) should admit the speech")
	}
	tight := Prefs{MaxChars: 5 * 15, MaxFragments: 5}
	if sp.Valid(tight) {
		t.Errorf("5 seconds (75 chars) should reject a %d-char speech", sp.MainLen())
	}
}
