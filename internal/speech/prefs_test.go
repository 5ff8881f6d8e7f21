package speech

import (
	"testing"

	"repro/internal/dimension"
)

func TestMaxCharsEffective(t *testing.T) {
	cases := []struct {
		prefs Prefs
		want  int
	}{
		{Prefs{MaxChars: 300}, 300},
		{Prefs{MaxChars: 300, MaxSeconds: 10, CharsPerSecond: 15}, 150},
		{Prefs{MaxChars: 100, MaxSeconds: 20, CharsPerSecond: 15}, 100},
		{Prefs{MaxSeconds: 4, CharsPerSecond: 25}, 100},
		{Prefs{MaxSeconds: 2}, 30}, // default 15 cps
		{Prefs{}, 0},
	}
	for _, c := range cases {
		if got := c.prefs.MaxCharsEffective(); got != c.want {
			t.Errorf("MaxCharsEffective(%+v) = %d, want %d", c.prefs, got, c.want)
		}
	}
}

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
	loose := Prefs{MaxSeconds: 60, CharsPerSecond: 15, MaxFragments: 5}
	if !sp.Valid(loose) {
		t.Error("60 seconds should admit the speech")
	}
	tight := Prefs{MaxSeconds: 5, CharsPerSecond: 15, MaxFragments: 5}
	if sp.Valid(tight) {
		t.Errorf("5 seconds (75 chars) should reject a %d-char speech", sp.MainLen())
	}
}
