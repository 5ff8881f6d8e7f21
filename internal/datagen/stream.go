package datagen

import "math/rand"

// FlightRow is one schema-valid flights fact row in wire form, ready to
// ship to the web layer's /api/ingest endpoint.
type FlightRow struct {
	Airport   string  `json:"airport"`
	Month     string  `json:"month"`
	Airline   string  `json:"airline"`
	Cancelled float64 `json:"cancelled"`
}

// FlightRows draws n rows from the same statistical model the Flights
// generator uses, with every dimension value taken from the generator's
// catalogs — so the rows always pass the streaming append's dictionary
// check against any Flights-built table. Deterministic in seed: the rows
// are the first n of the Flights table of the same seed, as strings.
func FlightRows(seed int64, n int) []FlightRow {
	model := newFlightModel()
	// An ingest batch is a few hundred rows: calling the source costs less
	// than a seeded stream's 37 KB buffer.
	src := sourceStream(rand.NewSource(seed))
	rows := make([]FlightRow, n)
	var draws [drawsPerRow]int64
	for i := range rows {
		model.cut(src, draws[:])
		a, m, l, cancelled := model.decode(draws[:])
		rows[i] = FlightRow{
			Airport:   airportCatalog[a].code,
			Month:     model.months[m].month,
			Airline:   airlineCatalog[l].name,
			Cancelled: cancelled,
		}
	}
	return rows
}
