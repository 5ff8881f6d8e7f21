// Package datagen generates the two synthetic benchmark datasets standing
// in for the paper's Kaggle data: a flight-cancellation fact table with
// three dimensions (start airport, flight date, airline) and a small
// college-salary table with two dimensions (college location, start
// salary). The region-by-season cancellation probabilities are planted to
// match Table 12 of the paper, so exact query evaluation reproduces the
// published full result; airline and airport multipliers add the finer
// structure exercised by drill-down queries.
package datagen

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sync"

	"repro/internal/dimension"
	"repro/internal/olap"
	"repro/internal/table"
)

// FlightsConfig parameterizes the flight dataset.
type FlightsConfig struct {
	// Rows is the number of flight rows; the paper's dataset has 5.3
	// million. Defaults to 200 000 when zero.
	Rows int
	// Seed drives the deterministic generator.
	Seed int64
	// Workers splits row generation across that many goroutines writing
	// disjoint row ranges. <= 1 keeps the sequential generator, whose
	// output for a fixed Seed is unchanged from earlier versions. Parallel
	// output is deterministic for a fixed (Seed, Workers) pair — each
	// worker derives its own seed from Seed and its range index — but is a
	// different, statistically equivalent, sample than the sequential
	// stream.
	Workers int
}

// DefaultFlightRows is the row count used when FlightsConfig.Rows is zero,
// chosen to keep test runtimes moderate while remaining large enough that
// full scans are visibly slower than sampling.
const DefaultFlightRows = 200000

// PaperFlightRows is the row count of the paper's dataset.
const PaperFlightRows = 5300000

// airportSpec is one airport with its location path.
type airportSpec struct {
	region, state, city, code string
	// factor multiplies the base cancellation probability; mean ~1 within
	// each region so Table 12's region marginals are preserved.
	factor float64
}

var airportCatalog = []airportSpec{
	{"the North East", "New York", "New York City", "JFK", 1.15},
	{"the North East", "New York", "New York City", "LGA", 1.25},
	{"the North East", "New York", "Buffalo", "BUF", 0.9},
	{"the North East", "Massachusetts", "Boston", "BOS", 1.35},
	{"the North East", "Pennsylvania", "Philadelphia", "PHL", 0.75},
	{"the North East", "New Jersey", "Newark", "EWR", 0.6},

	{"the Midwest", "Illinois", "Chicago", "ORD", 1.3},
	{"the Midwest", "Illinois", "Chicago", "MDW", 1.1},
	{"the Midwest", "Michigan", "Detroit", "DTW", 0.9},
	{"the Midwest", "Minnesota", "Minneapolis", "MSP", 0.7},
	{"the Midwest", "Ohio", "Columbus", "CMH", 0.8},
	{"the Midwest", "Iowa", "Des Moines", "DSM", 1.2},

	{"the South", "Georgia", "Atlanta", "ATL", 1.0},
	{"the South", "Texas", "Dallas", "DFW", 1.1},
	{"the South", "Texas", "Houston", "IAH", 0.9},
	{"the South", "Florida", "Orlando", "MCO", 1.35},
	{"the South", "Florida", "Miami", "MIA", 0.65},
	{"the South", "Arkansas", "Little Rock", "LIT", 1.25},
	{"the South", "Tennessee", "Nashville", "BNA", 0.75},

	{"the West", "California", "Los Angeles", "LAX", 1.05},
	{"the West", "California", "San Francisco", "SFO", 1.25},
	{"the West", "Washington", "Seattle", "SEA", 0.85},
	{"the West", "Colorado", "Denver", "DEN", 1.1},
	{"the West", "Nevada", "Las Vegas", "LAS", 0.75},

	{"the United States territories", "Puerto Rico", "San Juan", "SJU", 1.1},
	{"the United States territories", "Guam", "Hagatna", "GUM", 0.9},
}

// airlineSpec is one airline with its cancellation multiplier.
type airlineSpec struct {
	name   string
	factor float64
}

var airlineCatalog = []airlineSpec{
	{"American Airlines Inc.", 1.0},
	{"Delta Air Lines Inc.", 0.7},
	{"United Air Lines Inc.", 0.9},
	{"Southwest Airlines Co.", 0.85},
	{"Alaska Airlines Inc.", 1.3},
	{"American Eagle Airlines Inc.", 1.6},
	{"JetBlue Airways", 1.1},
	{"Spirit Air Lines", 1.4},
	{"Frontier Airlines Inc.", 1.15},
	{"Hawaiian Airlines Inc.", 0.5},
	{"Skywest Airlines Inc.", 1.2},
	{"US Airways Inc.", 0.95},
	{"Virgin America", 0.65},
	{"Atlantic Southeast Airlines", 1.25},
}

// seasonMonths maps each season to its months. Month effects within a
// season are mild and mean-one.
var seasonMonths = map[string][]struct {
	month  string
	factor float64
}{
	"Winter": {{"December", 0.9}, {"January", 1.0}, {"February", 1.1}},
	"Spring": {{"March", 1.05}, {"April", 1.0}, {"May", 0.95}},
	"Summer": {{"June", 1.15}, {"July", 0.95}, {"August", 0.9}},
	"Fall":   {{"September", 0.95}, {"October", 0.95}, {"November", 1.1}},
}

var seasonOrder = []string{"Winter", "Spring", "Summer", "Fall"}

// TableTwelve is the planted region-by-season average cancellation
// probability, copied from Table 12 of the paper.
var TableTwelve = map[string]map[string]float64{
	"the North East": {
		"Winter": 0.0555, "Spring": 0.02296, "Summer": 0.01662, "Fall": 0.00794,
	},
	"the Midwest": {
		"Winter": 0.03944, "Spring": 0.01576, "Summer": 0.018, "Fall": 0.01313,
	},
	"the South": {
		"Winter": 0.02851, "Spring": 0.01656, "Summer": 0.01097, "Fall": 0.00537,
	},
	"the West": {
		"Winter": 0.01562, "Spring": 0.00725, "Summer": 0.00927, "Fall": 0.0056,
	},
	"the United States territories": {
		"Winter": 0.01424, "Spring": 0.0065, "Summer": 0.00741, "Fall": 0.00183,
	},
}

// FlightHierarchies constructs the three flight dimensions (unbound).
func FlightHierarchies() (airport, date, airline *dimension.Hierarchy) {
	airport = dimension.MustNewHierarchy(
		"start airport", "airport", "flights starting from", "any airport",
		[]string{"region", "state", "city", "airport"})
	for _, a := range airportCatalog {
		airport.MustAddPath(a.region, a.state, a.city, a.code)
	}
	date = dimension.MustNewHierarchy(
		"flight date", "month", "flights scheduled in", "any date",
		[]string{"season", "month"})
	for _, season := range seasonOrder {
		for _, m := range seasonMonths[season] {
			date.MustAddPath(season, m.month)
		}
	}
	airline = dimension.MustNewHierarchy(
		"airline", "airline", "flights operated by", "any airline",
		[]string{"airline"})
	for _, a := range airlineCatalog {
		airline.MustAddPath(a.name)
	}
	return airport, date, airline
}

// normalizeFactors rescales per-row multiplicative factors so the expected
// multiplier is exactly one under uniform selection.
func normalizeFactors(fs []float64) []float64 {
	var sum float64
	for _, f := range fs {
		sum += f
	}
	mean := sum / float64(len(fs))
	out := make([]float64, len(fs))
	for i, f := range fs {
		out[i] = f / mean
	}
	return out
}

// monthEntry is one month with its season and normalized factor.
type monthEntry struct {
	season, month string
	factor        float64
}

// flightModel holds the normalized per-row factors of the flight generator:
// airport factors within each region, airline factors globally, and month
// factors within each season, so the Table 12 marginals are preserved in
// expectation.
type flightModel struct {
	airportFactor []float64
	airlineFactor []float64
	months        []monthEntry
	// base is TableTwelve by catalog indices, base[a*len(months)+m] for
	// airport a's region and month m's season: a row draws its probability
	// without hashing two strings.
	base []float64
	// drawAirport, drawMonth and drawAirline draw a row's catalog indices.
	drawAirport, drawMonth, drawAirline intn
}

// intn draws what rng.Intn(n) draws for one n in [1, 1<<31), from the same
// Int31 calls, without Int31n's two divisions: its rejection bound max is
// computed once, and v % n is a multiply-high by m = ceil(2^64 / n), exact
// for every 32-bit v and n (Lemire, Kaser and Kurz, "Faster remainder by
// direct computation", 2019). For a power of two, max rejects nothing and
// v % n is the mask Int31n takes.
type intn struct {
	n   uint64
	m   uint64
	max int32
}

func newIntn(n int) intn {
	return intn{n: uint64(n), m: math.MaxUint64/uint64(n) + 1, max: int32(1<<31 - 1 - (1<<31)%uint32(n))}
}

func (d intn) draw(rng *rand.Rand) int {
	v := rng.Int31()
	for v > d.max {
		v = rng.Int31()
	}
	r, _ := bits.Mul64(d.m*uint64(v), d.n)
	return int(r)
}

// newFlightModel normalizes the catalog factors.
func newFlightModel() *flightModel {
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
	base := make([]float64, 0, len(airportCatalog)*len(months))
	for _, a := range airportCatalog {
		for _, m := range months {
			base = append(base, TableTwelve[a.region][m.season])
		}
	}
	return &flightModel{
		airportFactor: airportFactor, airlineFactor: airlineFactor, months: months, base: base,
		drawAirport: newIntn(len(airportCatalog)), drawMonth: newIntn(len(months)), drawAirline: newIntn(len(airlineCatalog)),
	}
}

// genRow draws one flight row: catalog indices for airport, month, and
// airline plus the cancellation flag. The rng call order is the generator's
// wire format — changing it changes every seeded dataset.
func (fm *flightModel) genRow(rng *rand.Rand) (a, m, l int, cancelled float64) {
	a = fm.drawAirport.draw(rng)
	m = fm.drawMonth.draw(rng)
	l = fm.drawAirline.draw(rng)
	p := fm.base[a*len(fm.months)+m] * fm.airportFactor[a] * fm.airlineFactor[l] * fm.months[m].factor
	if p > 0.95 {
		p = 0.95
	}
	if rng.Float64() < p {
		cancelled = 1.0
	}
	return a, m, l, cancelled
}

// splitSeed derives the seed of worker w from the base seed; the golden
// gamma decorrelates the derived streams (splitmix-style).
func splitSeed(seed int64, w int) int64 {
	const gamma = uint64(0x9E3779B97F4A7C15)
	return seed ^ int64(uint64(w+1)*gamma)
}

// Flights generates the synthetic flight-cancellation dataset.
func Flights(cfg FlightsConfig) (*olap.Dataset, error) {
	rows := cfg.Rows
	if rows <= 0 {
		rows = DefaultFlightRows
	}
	model := newFlightModel()
	airportH, dateH, airlineH := FlightHierarchies()

	var tab *table.Table
	var err error
	if cfg.Workers > 1 {
		tab, err = flightsParallel(cfg.Seed, rows, cfg.Workers, model)
	} else {
		tab, err = flightsSequential(cfg.Seed, rows, model)
	}
	if err != nil {
		return nil, fmt.Errorf("datagen: %w", err)
	}
	d, err := olap.NewDataset(tab, airportH, dateH, airlineH)
	if err != nil {
		return nil, fmt.Errorf("datagen: %w", err)
	}
	return d, nil
}

// flightsSequential is the original single-stream generator; its output for
// a fixed seed is frozen (tests pin exact aggregate values against it),
// including the dictionary order of appending each row's strings one by
// one: codes are handed out in first-appearance order.
func flightsSequential(seed int64, rows int, model *flightModel) (*table.Table, error) {
	rng := rand.New(rand.NewSource(seed))
	airports := newFirstSeen(len(airportCatalog))
	months := newFirstSeen(len(model.months))
	airlines := newFirstSeen(len(airlineCatalog))
	airportCodes := make([]int32, rows)
	monthCodes := make([]int32, rows)
	airlineCodes := make([]int32, rows)
	cancelled := make([]float64, rows)
	for i := 0; i < rows; i++ {
		a, m, l, c := model.genRow(rng)
		airportCodes[i] = airports.code(a)
		monthCodes[i] = months.code(m)
		airlineCodes[i] = airlines.code(l)
		cancelled[i] = c
	}
	airportNames, monthNames, airlineNames := model.catalogNames()
	airportCol, err := airports.column("airport", airportCodes, airportNames)
	if err != nil {
		return nil, err
	}
	monthCol, err := months.column("month", monthCodes, monthNames)
	if err != nil {
		return nil, err
	}
	airlineCol, err := airlines.column("airline", airlineCodes, airlineNames)
	if err != nil {
		return nil, err
	}
	return table.New("flights", airportCol, monthCol, airlineCol,
		table.NewFloat64ColumnFromValues("cancelled", cancelled))
}

// firstSeen hands out dictionary codes to catalog indices in the order they
// first occur, the order StringColumn.Append would intern their strings in,
// without hashing a string per row.
type firstSeen struct {
	codes []int32 // catalog index -> code, -1 until seen
	order []int   // catalog indices in code order
}

func newFirstSeen(catalog int) *firstSeen {
	f := &firstSeen{codes: make([]int32, catalog)}
	for i := range f.codes {
		f.codes[i] = -1
	}
	return f
}

func (f *firstSeen) code(i int) int32 {
	if f.codes[i] < 0 {
		f.codes[i] = int32(len(f.order))
		f.order = append(f.order, i)
	}
	return f.codes[i]
}

// column builds the string column of the rows coded so far; names lists
// the catalog's strings in catalog order.
func (f *firstSeen) column(col string, codes []int32, names []string) (*table.StringColumn, error) {
	dict := make([]string, len(f.order))
	for code, i := range f.order {
		dict[code] = names[i]
	}
	return table.NewStringColumnFromCodes(col, dict, codes)
}

// catalogNames lists the column strings of the three dimensions in catalog
// order, the order genRow's indices refer to.
func (fm *flightModel) catalogNames() (airports, months, airlines []string) {
	airports = make([]string, len(airportCatalog))
	for i, a := range airportCatalog {
		airports[i] = a.code
	}
	months = make([]string, len(fm.months))
	for i, m := range fm.months {
		months[i] = m.month
	}
	airlines = make([]string, len(airlineCatalog))
	for i, a := range airlineCatalog {
		airlines[i] = a.name
	}
	return airports, months, airlines
}

// flightsParallel generates rows with the given number of workers, each
// filling a disjoint contiguous row range of shared code and measure slices
// from its own derived seed. Dictionaries are laid out in catalog order so
// the drawn catalog indices are the dictionary codes — no string interning
// on the hot path and no cross-worker coordination at all.
func flightsParallel(seed int64, rows, workers int, model *flightModel) (*table.Table, error) {
	if workers > rows {
		workers = rows
	}
	airportCodes := make([]int32, rows)
	monthCodes := make([]int32, rows)
	airlineCodes := make([]int32, rows)
	cancelled := make([]float64, rows)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * rows / workers
		hi := (w + 1) * rows / workers
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(splitSeed(seed, w)))
			for i := lo; i < hi; i++ {
				a, m, l, c := model.genRow(rng)
				airportCodes[i] = int32(a)
				monthCodes[i] = int32(m)
				airlineCodes[i] = int32(l)
				cancelled[i] = c
			}
		}(w, lo, hi)
	}
	wg.Wait()

	airportDict, monthDict, airlineDict := model.catalogNames()
	airportCol, err := table.NewStringColumnFromCodes("airport", airportDict, airportCodes)
	if err != nil {
		return nil, err
	}
	monthCol, err := table.NewStringColumnFromCodes("month", monthDict, monthCodes)
	if err != nil {
		return nil, err
	}
	airlineCol, err := table.NewStringColumnFromCodes("airline", airlineDict, airlineCodes)
	if err != nil {
		return nil, err
	}
	return table.New("flights", airportCol, monthCol, airlineCol,
		table.NewFloat64ColumnFromValues("cancelled", cancelled))
}
