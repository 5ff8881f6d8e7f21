package datagen

import (
	"fmt"
	"math/rand"

	"repro/internal/olap"
	"repro/internal/table"
)

// StarFlights generates the flight dataset as a star schema: a fact table
// holding integer foreign keys plus the cancelled measure, with separate
// airport, month, and airline dimension tables whose attributes table.Join
// materializes into the fact table at load. The bound dataset behaves
// identically to the denormalized Flights dataset (the paper: "our system
// can handle queries on star schemata as well").
func StarFlights(cfg FlightsConfig) (*olap.Dataset, error) {
	rows := cfg.Rows
	if rows <= 0 {
		rows = DefaultFlightRows
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	airportH, dateH, airlineH := FlightHierarchies()

	// Dimension tables: one row per leaf member.
	airportAttr := table.NewStringColumn("airport")
	for _, a := range airportCatalog {
		airportAttr.Append(a.code)
	}
	type monthEntry struct {
		season, month string
		factor        float64
	}
	var months []monthEntry
	for _, season := range seasonOrder {
		raw := make([]float64, len(seasonMonths[season]))
		for i, m := range seasonMonths[season] {
			raw[i] = m.factor
		}
		norm := normalizeFactors(raw)
		for i, m := range seasonMonths[season] {
			months = append(months, monthEntry{season, m.month, norm[i]})
		}
	}
	monthAttr := table.NewStringColumn("month")
	for _, m := range months {
		monthAttr.Append(m.month)
	}
	airlineAttr := table.NewStringColumn("airline")
	for _, a := range airlineCatalog {
		airlineAttr.Append(a.name)
	}

	// Factor normalization identical to the denormalized generator.
	regionAirports := make(map[string][]int)
	for i, a := range airportCatalog {
		regionAirports[a.region] = append(regionAirports[a.region], i)
	}
	airportFactor := make([]float64, len(airportCatalog))
	for _, idxs := range regionAirports {
		raw := make([]float64, len(idxs))
		for j, i := range idxs {
			raw[j] = airportCatalog[i].factor
		}
		norm := normalizeFactors(raw)
		for j, i := range idxs {
			airportFactor[i] = norm[j]
		}
	}
	rawAirline := make([]float64, len(airlineCatalog))
	for i, a := range airlineCatalog {
		rawAirline[i] = a.factor
	}
	airlineFactor := normalizeFactors(rawAirline)

	// Fact table: foreign keys plus the measure.
	airportFK := table.NewInt64Column("airportID")
	monthFK := table.NewInt64Column("monthID")
	airlineFK := table.NewInt64Column("airlineID")
	cancelledCol := table.NewFloat64Column("cancelled")
	for i := 0; i < rows; i++ {
		a := rng.Intn(len(airportCatalog))
		m := rng.Intn(len(months))
		l := rng.Intn(len(airlineCatalog))
		base := TableTwelve[airportCatalog[a].region][months[m].season]
		p := base * airportFactor[a] * airlineFactor[l] * months[m].factor
		if p > 0.95 {
			p = 0.95
		}
		cancelled := 0.0
		if rng.Float64() < p {
			cancelled = 1.0
		}
		airportFK.Append(int64(a))
		monthFK.Append(int64(m))
		airlineFK.Append(int64(l))
		cancelledCol.Append(cancelled)
	}

	fact, err := table.New("flightsFact", airportFK, monthFK, airlineFK, cancelledCol)
	if err != nil {
		return nil, fmt.Errorf("datagen: %w", err)
	}
	// The joins give the fact table the dimension source columns the
	// hierarchies bind against.
	for _, join := range []struct {
		name string
		fk   *table.Int64Column
		attr *table.StringColumn
	}{
		{"airport", airportFK, airportAttr},
		{"month", monthFK, monthAttr},
		{"airline", airlineFK, airlineAttr},
	} {
		col, err := table.Join(join.name, join.fk, join.attr)
		if err != nil {
			return nil, fmt.Errorf("datagen: %w", err)
		}
		if err := fact.AddColumn(col); err != nil {
			return nil, fmt.Errorf("datagen: %w", err)
		}
	}
	d, err := olap.NewDataset(fact, airportH, dateH, airlineH)
	if err != nil {
		return nil, fmt.Errorf("datagen: %w", err)
	}
	return d, nil
}
