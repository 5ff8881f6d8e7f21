package speech

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/dimension"
	"repro/internal/olap"
)

// TestTextLenMatchesText holds TextLen to len(Text()) on every menu
// refinement of both datasets: every group-by shape of one to three
// dimensions at every level, menus of one and two predicates per
// refinement, and quantifiers of one to three digits. MainLen, which the
// planner's length checks read, is held to len(MainText()) on a speech of
// each refinement. The menu never joins three phrases, so a hand-built
// refinement over all three flights dimensions covers the ", " join.
func TestTextLenMatchesText(t *testing.T) {
	flights, err := datagen.Flights(datagen.FlightsConfig{Rows: 2000, Seed: 21})
	if err != nil {
		t.Fatalf("Flights: %v", err)
	}
	salaries, err := datagen.Salaries(datagen.SalariesConfig{Seed: 21})
	if err != nil {
		t.Fatalf("Salaries: %v", err)
	}
	base := &Baseline{Value: 0.02, AggName: "count", Format: PercentFormat}
	check := func(r *Refinement) {
		t.Helper()
		if got, want := r.TextLen(), len(r.Text()); got != want {
			t.Fatalf("TextLen %d, len(Text()) %d: %q", got, want, r.Text())
		}
		sp := &Speech{Baseline: base, Refinements: []*Refinement{r}}
		if got, want := sp.MainLen(), len(sp.MainText()); got != want {
			t.Fatalf("MainLen %d, len(MainText()) %d: %q", got, want, sp.MainText())
		}
	}
	shapes, pairs, wide := 0, 0, 0
	for _, d := range []*olap.Dataset{flights, salaries} {
		hs := d.Hierarchies()
		var walk func(i int, gb []olap.GroupBy)
		walk = func(i int, gb []olap.GroupBy) {
			if i == len(hs) {
				if len(gb) == 0 {
					return
				}
				space, err := olap.NewSpace(d, olap.Query{Fct: olap.Count, GroupBy: gb})
				if err != nil {
					t.Fatalf("NewSpace: %v", err)
				}
				shapes++
				for preds := 1; preds <= 2; preds++ {
					g := NewGenerator(space, DefaultPrefs(), PercentFormat)
					g.Percents = []int{5, 20, 100, 250}
					g.MaxPredsPerRefinement = preds
					for _, r := range g.Refinements(nil) {
						check(r)
						if len(r.Preds) == 2 {
							pairs++
						}
						if r.Percent == 250 {
							wide++
						}
					}
				}
				return
			}
			walk(i+1, gb)
			if len(gb) < 3 {
				for level := 1; level <= hs[i].Depth(); level++ {
					walk(i+1, append(gb[:len(gb):len(gb)], olap.GroupBy{Hierarchy: hs[i], Level: level}))
				}
			}
		}
		walk(0, nil)
	}
	if shapes < 30 || pairs == 0 || wide == 0 {
		t.Fatalf("%d shapes, %d two-predicate and %d three-digit refinements: the walk covered too little", shapes, pairs, wide)
	}
	var three []*dimension.Member
	for _, h := range flights.Hierarchies() {
		three = append(three, h.MembersAt(1)[0])
	}
	for _, dir := range []Direction{Increase, Decrease} {
		check(&Refinement{Preds: three, Dir: dir, Percent: 250})
		check(&Refinement{Preds: three[:0], Dir: dir, Percent: -7})
	}
}
