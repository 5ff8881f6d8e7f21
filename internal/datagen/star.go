package datagen

import (
	"fmt"

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
	rows, err := cfg.rows()
	if err != nil {
		return nil, err
	}
	fm := newFlightModel()
	airportH, dateH, airlineH := FlightHierarchies()

	// Dimension tables: one row per leaf member, in catalog order, so a
	// catalog index is a foreign key.
	attr := func(name string, values []string) *table.StringColumn {
		col := table.NewStringColumn(name)
		for _, v := range values {
			col.Append(v)
		}
		return col
	}
	airportNames, monthNames, airlineNames := fm.catalogNames()
	airportAttr := attr("airport", airportNames)
	monthAttr := attr("month", monthNames)
	airlineAttr := attr("airline", airlineNames)

	// Fact table: foreign keys plus the measure, drawn row by row through
	// the same row model as Flights.
	airportFK := table.NewInt64Column("airportID")
	monthFK := table.NewInt64Column("monthID")
	airlineFK := table.NewInt64Column("airlineID")
	cancelledCol := table.NewFloat64Column("cancelled")
	src := seededStream(cfg.Seed)
	var draws [drawsPerRow]int64
	for i := 0; i < rows; i++ {
		fm.cut(src, draws[:])
		a, m, l, cancelled := fm.decode(draws[:])
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
