package dimension_test

import (
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/olap"
)

// TestLowerNameIsLowercasedName holds the name computed when a member is
// built to the one the keyword parser used to compute per command, on every
// member of the three shipped datasets, roots included.
func TestLowerNameIsLowercasedName(t *testing.T) {
	flights, err := datagen.Flights(datagen.FlightsConfig{Rows: 500, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	star, err := datagen.StarFlights(datagen.FlightsConfig{Rows: 500, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	salaries, err := datagen.Salaries(datagen.SalariesConfig{Rows: 500, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for name, d := range map[string]*olap.Dataset{"flights": flights, "star flights": star, "salaries": salaries} {
		members, mixed := 0, 0
		for _, h := range d.Hierarchies() {
			for level := 0; level <= h.Depth(); level++ {
				for _, m := range h.MembersAt(level) {
					members++
					want := strings.ToLower(m.Name)
					if want != m.Name {
						mixed++
					}
					if got := m.LowerName(); got != want {
						t.Errorf("%s: %v.LowerName() = %q, want %q", name, m, got, want)
					}
				}
			}
		}
		if mixed == 0 {
			t.Errorf("%s: none of %d member names has an upper-case letter; the test checks nothing", name, members)
		}
	}
}
