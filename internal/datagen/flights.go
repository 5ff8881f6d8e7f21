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
	"runtime"
	"sync"

	"repro/internal/dimension"
	"repro/internal/olap"
	"repro/internal/table"
)

// FlightsConfig parameterizes the flight dataset.
type FlightsConfig struct {
	// Rows is the number of flight rows; the paper's dataset has 5.3
	// million. Defaults to 200 000 when zero; a negative count is an error.
	Rows int
	// Seed drives the deterministic generator: a fixed Seed gives the same
	// table at every GOMAXPROCS.
	Seed int64
}

// rows returns the configured row count, DefaultFlightRows for zero.
func (cfg FlightsConfig) rows() (int, error) {
	switch {
	case cfg.Rows < 0:
		return 0, fmt.Errorf("datagen: negative flight row count %d", cfg.Rows)
	case cfg.Rows == 0:
		return DefaultFlightRows, nil
	}
	return cfg.Rows, nil
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

// intn is rand.Intn(n) for one n in [1, 1<<31), in two halves: limit
// tells which Int63 values Int31n keeps, and index maps a kept value to
// what Int31n returns for it, without Int31n's two divisions. The
// rejection bound max is computed once, and v % n is a multiply-high by
// m = ceil(2^64 / n), exact for every 32-bit v and n (Lemire, Kaser and
// Kurz, "Faster remainder by direct computation", 2019). For a power of
// two, max rejects nothing and v % n is the mask Int31n takes.
type intn struct {
	n   uint64
	m   uint64
	max int32
}

func newIntn(n int) intn {
	return intn{n: uint64(n), m: math.MaxUint64/uint64(n) + 1, max: int32(1<<31 - 1 - (1<<31)%uint32(n))}
}

// limit is the largest Int63 whose Int31, its top 31 bits, Int31n keeps;
// it draws again for any value above.
func (d intn) limit() int64 { return int64(d.max)<<32 | (1<<32 - 1) }

// index returns what Int31n returns for the Int63 v it keeps.
func (d intn) index(v int64) int {
	r, _ := bits.Mul64(d.m*uint64(v>>32), d.n)
	return int(r)
}

// unitFloat is what rand.Float64 makes of the Int63 v.
func unitFloat(v int64) float64 { return float64(v) / (1 << 63) }

// unitFloatLimit is the largest Int63 that rand.Float64 keeps: from
// 1<<63 - 512 on, the conversion to float64 rounds up to 1<<63, the
// quotient is 1, and Float64 draws again.
const unitFloatLimit = 1<<63 - 513

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

// drawsPerRow is how many accepted draws make one row: the airport, month
// and airline indices, then the cancellation draw. They are what
// rand.Rand's Intn, Intn, Intn and Float64 take from the stream, in that
// order; the order is the generator's wire format — changing it changes
// every seeded dataset.
const drawsPerRow = 4

// cutChunkRows is how many rows cut clears of rejected draws with one
// compare.
const cutChunkRows = 16

// cut fills draws, a whole number of rows, with the next rows' accepted
// draws from src: a value above its field's limit is dropped and the
// draws after it move up one place, as Intn and Float64 draw again. It is
// the only code that needs to see the stream in order.
func (fm *flightModel) cut(src *int63Stream, draws []int64) {
	limits := [drawsPerRow]int64{fm.drawAirport.limit(), fm.drawMonth.limit(), fm.drawAirline.limit(), unitFloatLimit}
	src.read(draws)
	for lo := 0; lo < len(draws); lo += drawsPerRow * cutChunkRows {
		hi := min(lo+drawsPerRow*cutChunkRows, len(draws))
		// A draw and its limit are both in [0, 1<<63), so limit - draw is
		// negative, without overflow, exactly when the draw is rejected,
		// and the chunk's differences ORed together are negative when any
		// of its draws is.
		var diffs int64
		for r := lo; r < hi; r += drawsPerRow {
			row := draws[r : r+drawsPerRow : r+drawsPerRow]
			diffs |= (limits[0] - row[0]) | (limits[1] - row[1]) | (limits[2] - row[2]) | (limits[3] - row[3])
		}
		if diffs >= 0 {
			continue
		}
		for i := lo; i < hi; {
			if draws[i] <= limits[uint(i)%drawsPerRow] {
				i++
				continue
			}
			copy(draws[i:], draws[i+1:])
			src.read(draws[len(draws)-1:])
		}
	}
}

// decode turns one row's accepted draws into its catalog indices for
// airport, month and airline and its cancellation flag. It is indices,
// then cancels: two halves the compiler inlines into a row loop, where
// decode, over the inlining budget, would be a call per row.
func (fm *flightModel) decode(row []int64) (a, m, l int, cancelled float64) {
	a, m, l = fm.indices(row)
	if fm.cancels(row[3], a, m, l) {
		cancelled = 1.0
	}
	return a, m, l, cancelled
}

// indices returns a row's catalog indices for airport, month and airline.
func (fm *flightModel) indices(row []int64) (a, m, l int) {
	return fm.drawAirport.index(row[0]), fm.drawMonth.index(row[1]), fm.drawAirline.index(row[2])
}

// cancels reports whether the row with catalog indices a, m and l and
// cancellation draw v is cancelled: whether the Float64 falls below the
// row's probability, base * airport factor * airline factor * month
// factor, capped at 0.95.
func (fm *flightModel) cancels(v int64, a, m, l int) bool {
	p := fm.base[a*len(fm.months)+m] * fm.airportFactor[a] * fm.airlineFactor[l] * fm.months[m].factor
	if p > 0.95 {
		p = 0.95
	}
	return unitFloat(v) < p
}

// flightBlockRows is how many rows one block of the stream holds.
const flightBlockRows = 1 << 15

// Flights generates the synthetic flight-cancellation dataset.
func Flights(cfg FlightsConfig) (*olap.Dataset, error) {
	rows, err := cfg.rows()
	if err != nil {
		return nil, err
	}
	tab, err := flightsFrom(seededStream(cfg.Seed), rows, newFlightModel())
	if err != nil {
		return nil, fmt.Errorf("datagen: %w", err)
	}
	airportH, dateH, airlineH := FlightHierarchies()
	d, err := olap.NewDataset(tab, airportH, dateH, airlineH)
	if err != nil {
		return nil, fmt.Errorf("datagen: %w", err)
	}
	return d, nil
}

// flightsFrom generates rows flight rows from src: byte for byte the table
// that drawing row after row from rand.New over src's source gives, at
// every GOMAXPROCS.
// Dictionary codes are handed out in first-appearance order, the order
// appending each row's strings to a StringColumn would intern them in.
//
// Rows come in blocks of flightBlockRows, cut from src one at a time, in
// stream order, under a blockCutter's lock: the only serial stage. The
// caller decodes blocks in order until every catalog entry has been seen,
// which fixes the codes; that is the first block unless the table is tiny.
// The remaining blocks may then be decoded in any order: up to GOMAXPROCS
// workers, the caller among them, each cut a block and decode it into its
// own row range. At GOMAXPROCS 1, or with one block, the caller runs the
// same loop alone.
func flightsFrom(src *int63Stream, rows int, fm *flightModel) (*table.Table, error) {
	workers := min(runtime.GOMAXPROCS(0), (rows+flightBlockRows-1)/flightBlockRows)
	fc := newFlightColumns(fm, rows)
	blocks := &blockCutter{src: src, fm: fm, rows: rows}
	draws := make([]int64, drawsPerRow*min(rows, flightBlockRows))
	for !fc.settled() {
		lo, block := blocks.next(draws)
		if block == nil {
			break
		}
		fc.fill(lo, block)
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fc.fillFrom(blocks, make([]int64, drawsPerRow*flightBlockRows))
		}()
	}
	fc.fillFrom(blocks, draws)
	wg.Wait()
	return fc.table()
}

// blockCutter hands out the stream's blocks in row order.
type blockCutter struct {
	mu       sync.Mutex
	src      *int63Stream
	fm       *flightModel
	lo, rows int // the next block's first row, and the table's rows
}

// next cuts the next block into buf and returns its first row and its
// draws, or nil draws once every row has been cut.
func (c *blockCutter) next(buf []int64) (int, []int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	lo := c.lo
	if lo >= c.rows {
		return lo, nil
	}
	block := buf[:drawsPerRow*min(flightBlockRows, c.rows-lo)]
	c.fm.cut(c.src, block)
	c.lo += flightBlockRows
	return lo, block
}

// flightColumns is a table being generated: the three dimensions'
// dictionary codes and the measure, one entry per row.
type flightColumns struct {
	fm                                     *flightModel
	airports, months, airlines             *firstSeen
	airportCodes, monthCodes, airlineCodes []int32
	cancelled                              []float64
}

// newFlightColumns allocates the columns of a rows-row table. Zeroing them
// is the longest step no block can start before, so a second goroutine
// zeroes the measure column while the caller zeroes the codes. Each column
// has rows/64 rows of spare capacity, which the table's first live copy
// appends into (table.AppendableCopy), so a stream's first batch does not
// copy the table; pages nobody writes cost no memory.
func newFlightColumns(fm *flightModel, rows int) *flightColumns {
	capacity := rows + rows/64
	fc := &flightColumns{
		fm:       fm,
		airports: newFirstSeen(len(airportCatalog)),
		months:   newFirstSeen(len(fm.months)),
		airlines: newFirstSeen(len(airlineCatalog)),
	}
	done := make(chan struct{})
	go func() {
		fc.cancelled = make([]float64, rows, capacity)
		close(done)
	}()
	fc.airportCodes = make([]int32, rows, capacity)
	fc.monthCodes = make([]int32, rows, capacity)
	fc.airlineCodes = make([]int32, rows, capacity)
	<-done
	return fc
}

// fillFrom cuts blocks into buf and fills them until every row is cut.
func (fc *flightColumns) fillFrom(blocks *blockCutter, buf []int64) {
	for {
		lo, block := blocks.next(buf)
		if block == nil {
			return
		}
		fc.fill(lo, block)
	}
}

// fill decodes draws, the accepted draws of the rows from row lo on.
// Before settled it must see the blocks in row order; after, it only
// reads the shared dictionaries, and blocks may be filled concurrently.
func (fc *flightColumns) fill(lo int, draws []int64) {
	n := len(draws) / drawsPerRow
	airports, months, airlines := fc.airportCodes[lo:lo+n], fc.monthCodes[lo:lo+n], fc.airlineCodes[lo:lo+n]
	cancelled := fc.cancelled[lo : lo+n]
	if !fc.settled() {
		for i := range cancelled {
			a, m, l, c := fc.fm.decode(draws[i*drawsPerRow : (i+1)*drawsPerRow])
			airports[i] = fc.airports.code(a)
			months[i] = fc.months.code(m)
			airlines[i] = fc.airlines.code(l)
			cancelled[i] = c
		}
		return
	}
	// Settled codes are a lookup by catalog index, and decode's halves
	// inline here. The lookup tables are local arrays, which leaves the
	// loop few enough slices to keep them in registers; an index of 256
	// or more fails the arrays' bounds check rather than reading a wrong
	// code. The measure column starts zeroed, so only a cancelled row
	// writes its measure.
	fm := fc.fm
	var airportCode, monthCode, airlineCode [256]int32
	copy(airportCode[:], fc.airports.codes)
	copy(monthCode[:], fc.months.codes)
	copy(airlineCode[:], fc.airlines.codes)
	for i := range cancelled {
		row := draws[i*drawsPerRow : (i+1)*drawsPerRow]
		a, m, l := fm.indices(row)
		airports[i] = airportCode[a]
		months[i] = monthCode[m]
		airlines[i] = airlineCode[l]
		if fm.cancels(row[3], a, m, l) {
			cancelled[i] = 1.0
		}
	}
}

// settled reports whether every catalog entry has its code.
func (fc *flightColumns) settled() bool {
	return fc.airports.complete() && fc.months.complete() && fc.airlines.complete()
}

// table assembles the generated columns. The three string columns check
// their codes against their dictionaries concurrently, the caller taking
// the last.
func (fc *flightColumns) table() (*table.Table, error) {
	airportNames, monthNames, airlineNames := fc.fm.catalogNames()
	specs := [...]struct {
		name  string
		seen  *firstSeen
		codes []int32
		names []string
	}{
		{"airport", fc.airports, fc.airportCodes, airportNames},
		{"month", fc.months, fc.monthCodes, monthNames},
		{"airline", fc.airlines, fc.airlineCodes, airlineNames},
	}
	var cols [len(specs)]table.Column
	var errs [len(specs)]error
	check := func(i int) {
		cols[i], errs[i] = specs[i].seen.column(specs[i].name, specs[i].codes, specs[i].names)
	}
	var wg sync.WaitGroup
	for i := range len(specs) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			check(i)
		}()
	}
	check(len(specs) - 1)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return table.New("flights", cols[0], cols[1], cols[2],
		table.NewFloat64ColumnFromValues("cancelled", fc.cancelled))
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

// code returns catalog index i's code, handing out the next one if i is
// new. Once complete, it only reads.
func (f *firstSeen) code(i int) int32 {
	if f.codes[i] < 0 {
		f.codes[i] = int32(len(f.order))
		f.order = append(f.order, i)
	}
	return f.codes[i]
}

// complete reports whether every catalog index has its code.
func (f *firstSeen) complete() bool { return len(f.order) == len(f.codes) }

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
// order, the order decode's indices refer to.
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
