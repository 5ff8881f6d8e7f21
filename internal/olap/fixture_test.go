package olap

import (
	"testing"

	"repro/internal/dimension"
	"repro/internal/table"
)

// testRow is one flight observation of the miniature fixture dataset.
type testRow struct {
	city      string
	month     string
	cancelled float64
}

// fixtureRows is a hand-checkable dataset: 12 rows across two regions and
// two seasons. Cancellation averages:
//
//	NE/Winter: (1+1+0)/3 = 2/3   NE/Summer: (0+1)/2 = 1/2
//	MW/Winter: (0+1)/2   = 1/2   MW/Summer: (0+0+0)/3 = 0
//	plus 2 rows in the West used by filter tests.
var fixtureRows = []testRow{
	{"Boston", "January", 1},
	{"Boston", "February", 1},
	{"New York City", "January", 0},
	{"Boston", "July", 0},
	{"New York City", "August", 1},
	{"Chicago", "January", 0},
	{"Chicago", "February", 1},
	{"Chicago", "July", 0},
	{"Detroit", "August", 0},
	{"Detroit", "July", 0},
	{"Los Angeles", "January", 1},
	{"Los Angeles", "July", 0},
}

type fixture struct {
	dataset *Dataset
	airport *dimension.Hierarchy
	date    *dimension.Hierarchy
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	airport := dimension.MustNewHierarchy("start airport", "city", "flights starting from", "any airport",
		[]string{"region", "city"})
	airport.MustAddPath("the North East", "Boston")
	airport.MustAddPath("the North East", "New York City")
	airport.MustAddPath("the Midwest", "Chicago")
	airport.MustAddPath("the Midwest", "Detroit")
	airport.MustAddPath("the West", "Los Angeles")

	date := dimension.MustNewHierarchy("flight date", "month", "flights scheduled in", "any date",
		[]string{"season", "month"})
	date.MustAddPath("Winter", "January")
	date.MustAddPath("Winter", "February")
	date.MustAddPath("Summer", "July")
	date.MustAddPath("Summer", "August")

	city := table.NewStringColumn("city")
	month := table.NewStringColumn("month")
	cancelled := table.NewFloat64Column("cancelled")
	for _, r := range fixtureRows {
		city.Append(r.city)
		month.Append(r.month)
		cancelled.Append(r.cancelled)
	}
	tab, err := table.New("flights", city, month, cancelled)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDataset(tab, airport, date)
	if err != nil {
		t.Fatalf("NewDataset: %v", err)
	}
	return &fixture{dataset: d, airport: airport, date: date}
}

// regionSeasonQuery is AVG(cancelled) GROUP BY region, season.
func (f *fixture) regionSeasonQuery() Query {
	return Query{
		Fct:            Avg,
		Col:            "cancelled",
		ColDescription: "average cancellation probability",
		GroupBy: []GroupBy{
			{Hierarchy: f.airport, Level: 1},
			{Hierarchy: f.date, Level: 1},
		},
	}
}
