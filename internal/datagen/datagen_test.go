package datagen

import (
	"math"
	"testing"
	"time"

	"repro/internal/dimension"
	"repro/internal/olap"
	"repro/internal/table"
)

func TestFlightsGeneration(t *testing.T) {
	d, err := Flights(FlightsConfig{Rows: 50000, Seed: 1})
	if err != nil {
		t.Fatalf("Flights: %v", err)
	}
	if d.Table().NumRows() != 50000 {
		t.Fatalf("rows = %d", d.Table().NumRows())
	}
	if len(d.Hierarchies()) != 3 {
		t.Fatalf("hierarchies = %d, want 3", len(d.Hierarchies()))
	}
	airport := d.HierarchyByName("start airport")
	if airport == nil || airport.Depth() != 4 {
		t.Fatal("start airport hierarchy missing or wrong depth")
	}
	if len(airport.MembersAt(1)) != 5 {
		t.Errorf("regions = %d, want 5", len(airport.MembersAt(1)))
	}
	date := d.HierarchyByName("flight date")
	if len(date.MembersAt(1)) != 4 || len(date.MembersAt(2)) != 12 {
		t.Error("date hierarchy should have 4 seasons and 12 months")
	}
	airline := d.HierarchyByName("airline")
	if len(airline.MembersAt(1)) != 14 {
		t.Errorf("airlines = %d, want 14", len(airline.MembersAt(1)))
	}
}

func TestFlightsDefaultRows(t *testing.T) {
	if testing.Short() {
		t.Skip("default-size generation in short mode")
	}
	d, err := Flights(FlightsConfig{Seed: 1})
	if err != nil {
		t.Fatalf("Flights: %v", err)
	}
	if d.Table().NumRows() != DefaultFlightRows {
		t.Errorf("rows = %d, want %d", d.Table().NumRows(), DefaultFlightRows)
	}
}

// TestFlightsNegativeRows: only zero means the default row count; a
// negative one is an error, not 200 000 rows.
func TestFlightsNegativeRows(t *testing.T) {
	for _, rows := range []int{-1, -5} {
		if d, err := Flights(FlightsConfig{Rows: rows, Seed: 1}); err == nil {
			t.Errorf("Flights with %d rows: no error, %d rows", rows, d.Table().NumRows())
		}
		if d, err := StarFlights(FlightsConfig{Rows: rows, Seed: 1}); err == nil {
			t.Errorf("StarFlights with %d rows: no error, %d rows", rows, d.Table().NumRows())
		}
	}
}

func TestFlightsDeterministic(t *testing.T) {
	a, _ := Flights(FlightsConfig{Rows: 1000, Seed: 7})
	b, _ := Flights(FlightsConfig{Rows: 1000, Seed: 7})
	ca, _ := a.Measure("cancelled")
	cb, _ := b.Measure("cancelled")
	for i := 0; i < 1000; i++ {
		if ca.Float(i) != cb.Float(i) {
			t.Fatal("same seed should generate identical data")
		}
	}
	c, _ := Flights(FlightsConfig{Rows: 1000, Seed: 8})
	cc, _ := c.Measure("cancelled")
	same := true
	for i := 0; i < 1000; i++ {
		if ca.Float(i) != cc.Float(i) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should differ")
	}
}

// TestFlightsPlantedEffects checks that exact evaluation of the synthetic
// data approximates the Table 12 region-by-season probabilities.
func TestFlightsPlantedEffects(t *testing.T) {
	d, err := Flights(FlightsConfig{Rows: 120000, Seed: 3})
	if err != nil {
		t.Fatalf("Flights: %v", err)
	}
	airport := d.HierarchyByName("start airport")
	date := d.HierarchyByName("flight date")
	q := olap.Query{
		Fct: olap.Avg, Col: "cancelled",
		GroupBy: []olap.GroupBy{
			{Hierarchy: airport, Level: 1},
			{Hierarchy: date, Level: 1},
		},
	}
	r, err := olap.Evaluate(d, q)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	s := r.Space()
	for i := 0; i < s.Size(); i++ {
		coords := s.Coordinates(i)
		want := TableTwelve[coords[0].Name][coords[1].Name]
		got := r.Value(i)
		// With ~6000 rows per cell, allow a generous tolerance but require
		// the same order of magnitude and rank structure.
		if math.Abs(got-want) > want*0.5+0.004 {
			t.Errorf("%s: got %.5f, planted %.5f", s.AggregateName(i), got, want)
		}
	}
	// Winter in the NE must dominate everything else, as in Table 12.
	ne := airport.FindMember("the North East")
	winter := date.FindMember("Winter")
	neWinter := s.IndexOf([]*dimension.Member{ne, winter})
	if neWinter < 0 {
		t.Fatal("NE/Winter aggregate not found")
	}
	top := r.Value(neWinter)
	for i := 0; i < s.Size(); i++ {
		if i != neWinter && r.Value(i) >= top {
			t.Errorf("%s (%.5f) should be below NE/Winter (%.5f)",
				s.AggregateName(i), r.Value(i), top)
		}
	}
}

func TestSalariesGeneration(t *testing.T) {
	d, err := Salaries(SalariesConfig{Seed: 2})
	if err != nil {
		t.Fatalf("Salaries: %v", err)
	}
	if d.Table().NumRows() != DefaultSalaryRows {
		t.Fatalf("rows = %d, want %d", d.Table().NumRows(), DefaultSalaryRows)
	}
	loc := d.HierarchyByName("college location")
	if loc == nil || loc.Depth() != 3 {
		t.Fatal("college location hierarchy wrong")
	}
	if len(loc.MembersAt(1)) != 4 {
		t.Errorf("regions = %d, want 4", len(loc.MembersAt(1)))
	}
	start := d.HierarchyByName("start salary")
	if len(start.MembersAt(1)) != 2 || len(start.MembersAt(2)) != 5 {
		t.Error("start salary hierarchy wrong")
	}
}

// TestSalariesPlantedEffects verifies the Northeast premium and the
// start-salary gradient used by the paper's example speeches.
func TestSalariesPlantedEffects(t *testing.T) {
	d, err := Salaries(SalariesConfig{Rows: 3200, Seed: 5})
	if err != nil {
		t.Fatalf("Salaries: %v", err)
	}
	loc := d.HierarchyByName("college location")
	q := olap.Query{
		Fct: olap.Avg, Col: "midCareerSalary",
		GroupBy: []olap.GroupBy{{Hierarchy: loc, Level: 1}},
	}
	r, err := olap.Evaluate(d, q)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	s := r.Space()
	byName := map[string]float64{}
	for i := 0; i < s.Size(); i++ {
		byName[s.AggregateName(i)] = r.Value(i)
	}
	if byName["the Northeast"] <= byName["the South"] {
		t.Errorf("Northeast (%v) should out-earn the South (%v)",
			byName["the Northeast"], byName["the South"])
	}

	start := d.HierarchyByName("start salary")
	q2 := olap.Query{
		Fct: olap.Avg, Col: "midCareerSalary",
		GroupBy: []olap.GroupBy{{Hierarchy: start, Level: 1}},
	}
	r2, err := olap.Evaluate(d, q2)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	s2 := r2.Space()
	by2 := map[string]float64{}
	for i := 0; i < s2.Size(); i++ {
		by2[s2.AggregateName(i)] = r2.Value(i)
	}
	if by2["at least 50 K"] <= by2["less than 50 K"] {
		t.Error("higher start salary should imply higher mid-career salary")
	}
}

func TestSalariesRowOverride(t *testing.T) {
	d, err := Salaries(SalariesConfig{Rows: 64, Seed: 1})
	if err != nil {
		t.Fatalf("Salaries: %v", err)
	}
	if d.Table().NumRows() != 64 {
		t.Errorf("rows = %d, want 64", d.Table().NumRows())
	}
}

// TestSmallTableIngestsEveryCatalogMember holds a live copy of a Flights
// table too small to draw every member, 1 and 3 rows, to the ingest
// contract: one AppendBatch holding every leaf of the three hierarchies is
// accepted, and so are FlightRows of any seed, which are promised to pass
// the append's dictionary check against any Flights-built table.
func TestSmallTableIngestsEveryCatalogMember(t *testing.T) {
	// Every airport, month and airline, each column cycling through its
	// hierarchy's leaves until the longest list is done.
	airportH, dateH, airlineH := FlightHierarchies()
	cols := []struct {
		name string
		h    *dimension.Hierarchy
	}{{"airport", airportH}, {"month", dateH}, {"airline", airlineH}}
	n := 0
	for _, c := range cols {
		n = max(n, len(c.h.MembersAt(c.h.Depth())))
	}
	members := table.NewRowBatch().Float64s("cancelled", make([]float64, n)...)
	for _, c := range cols {
		leaves := c.h.MembersAt(c.h.Depth())
		vals := make([]string, n)
		for j := range vals {
			vals[j] = leaves[j%len(leaves)].Name
		}
		members.Strings(c.name, vals...)
	}
	at := time.Unix(1, 0)
	for _, rows := range []int{1, 3} {
		for _, seed := range []int64{1, 11, 2019} {
			d, err := Flights(FlightsConfig{Rows: rows, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			live, err := d.Table().AppendableCopy(at)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := live.AppendBatch(members, at); err != nil {
				t.Fatalf("rows %d seed %d: every catalog member: %v", rows, seed, err)
			}
			want := rows + n
			for _, rowSeed := range []int64{1, 5, 2019} {
				fr := FlightRows(rowSeed, 256)
				airports, months, airlines := make([]string, len(fr)), make([]string, len(fr)), make([]string, len(fr))
				cancelled := make([]float64, len(fr))
				for i, r := range fr {
					airports[i], months[i], airlines[i], cancelled[i] = r.Airport, r.Month, r.Airline, r.Cancelled
				}
				batch := table.NewRowBatch().Strings("airport", airports...).Strings("month", months...).
					Strings("airline", airlines...).Float64s("cancelled", cancelled...)
				if _, err := live.AppendBatch(batch, at); err != nil {
					t.Fatalf("rows %d seed %d: FlightRows(%d, 256): %v", rows, seed, rowSeed, err)
				}
				want += len(fr)
			}
			if got := live.NumRows(); got != want {
				t.Fatalf("rows %d seed %d: %d rows after the appends, want %d", rows, seed, got, want)
			}
		}
	}
}
