package datagen

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/table"
)

// flightsAppendReference is the generator as it was first written: one
// row after another from rng, with rand.Intn and rand.Float64 and the
// planted probability looked up by name (genRowReference), and one
// StringColumn.Append per string per row. Seeded datasets, golden files and
// every benchmark quality number were produced by it, so flightsFrom must
// reproduce it byte for byte. Each string column's dictionary starts as its
// catalog, in catalog order, so a code is a catalog index and the Appends
// add no member.
func flightsAppendReference(rng *rand.Rand, rows int, model *flightModel) (*table.Table, error) {
	airportNames, monthNames, airlineNames := model.catalogNames()
	catalogColumn := func(name string, catalog []string) *table.StringColumn {
		col, err := table.NewStringColumnFromCodes(name, catalog, nil)
		if err != nil {
			panic(err)
		}
		return col
	}
	airportCol := catalogColumn("airport", airportNames)
	monthCol := catalogColumn("month", monthNames)
	airlineCol := catalogColumn("airline", airlineNames)
	cancelledCol := table.NewFloat64Column("cancelled")
	for i := 0; i < rows; i++ {
		a, m, l, cancelled := genRowReference(model, rng)
		airportCol.Append(airportCatalog[a].code)
		monthCol.Append(model.months[m].month)
		airlineCol.Append(airlineCatalog[l].name)
		cancelledCol.Append(cancelled)
	}
	return table.New("flights", airportCol, monthCol, airlineCol, cancelledCol)
}

// sameFlights fails the test unless got equals want byte for byte: the same
// dictionaries in the same order, the same codes and the same measure bits.
func sameFlights(t *testing.T, label string, got, want *table.Table) {
	t.Helper()
	for _, name := range []string{"airport", "month", "airline"} {
		g, err := got.StringColumn(name)
		if err != nil {
			t.Fatal(err)
		}
		w, err := want.StringColumn(name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(g.Dict(), w.Dict()) {
			t.Fatalf("%s: %s dictionary %v, reference %v", label, name, g.Dict(), w.Dict())
		}
		if !reflect.DeepEqual(g.Codes(), w.Codes()) {
			t.Fatalf("%s: %s codes differ from the reference", label, name)
		}
	}
	g, err := got.Float64Column("cancelled")
	if err != nil {
		t.Fatal(err)
	}
	w, err := want.Float64Column("cancelled")
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Values()) != len(w.Values()) {
		t.Fatalf("%s: %d measures, reference %d", label, len(g.Values()), len(w.Values()))
	}
	for i, v := range g.Values() {
		if math.Float64bits(v) != math.Float64bits(w.Values()[i]) {
			t.Fatalf("%s: cancelled[%d] = %v, reference %v", label, i, v, w.Values()[i])
		}
	}
}

// TestFlightsSequentialMatchesAppendReference holds Flights to the
// row-after-row reference at whatever GOMAXPROCS the test runs at (CI runs
// it at 1, 2 and 4 under -race), on both sides of every block boundary,
// and requires it to leave no goroutine behind.
func TestFlightsSequentialMatchesAppendReference(t *testing.T) {
	model := newFlightModel()
	const b = flightBlockRows
	before := runtime.NumGoroutine()
	// 1 and 3 rows draw few catalog members; 50 000 draw them all.
	for _, rows := range []int{1, 3, b - 1, b, b + 1, 3*b + 7, 50000} {
		for _, seed := range []int64{1, 11, 2019} {
			d, err := Flights(FlightsConfig{Rows: rows, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if n := goroutinesDownTo(before); n > before {
				t.Fatalf("seed %d rows %d: %d goroutines after Flights, %d before", seed, rows, n, before)
			}
			want, err := flightsAppendReference(rand.New(rand.NewSource(seed)), rows, model)
			if err != nil {
				t.Fatal(err)
			}
			sameFlights(t, fmt.Sprintf("seed %d rows %d", seed, rows), d.Table(), want)
		}
	}
}

// goroutinesDownTo returns the goroutine count once it is at most want, or
// after a second: a goroutine that has signalled its WaitGroup still counts
// until it has returned.
func goroutinesDownTo(want int) int {
	deadline := time.Now().Add(time.Second)
	n := runtime.NumGoroutine()
	for n > want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// scriptedSource is a seeded source whose value at stream position at[k]
// is replaced by values[k]; at is increasing.
type scriptedSource struct {
	src    rand.Source
	n      int
	at     []int
	values []int64
}

func (s *scriptedSource) Int63() int64 {
	v := s.src.Int63()
	if len(s.at) > 0 && s.at[0] == s.n {
		v = s.values[0]
		s.at, s.values = s.at[1:], s.values[1:]
	}
	s.n++
	return v
}

func (s *scriptedSource) Seed(seed int64) { s.src.Seed(seed) }

func newScriptedSource(seed int64, at []int, values []int64) *scriptedSource {
	return &scriptedSource{src: rand.NewSource(seed), at: at, values: values}
}

// matchesReference generates rows rows from two copies of one scripted
// stream, one through flightsFrom and one through the reference.
func matchesReference(t *testing.T, label string, seed int64, rows int, at []int, values []int64) {
	t.Helper()
	model := newFlightModel()
	got, err := flightsFrom(sourceStream(newScriptedSource(seed, at, values)), rows, model)
	if err != nil {
		t.Fatal(err)
	}
	want, err := flightsAppendReference(rand.New(newScriptedSource(seed, at, values)), rows, model)
	if err != nil {
		t.Fatal(err)
	}
	sameFlights(t, label, got, want)
}

// edgeDraws lists, per field of a row, Int63 values at the edges of the
// field's acceptance test: those rand.Rand draws again for, and those it
// keeps.
func edgeDraws(model *flightModel) (rejected, accepted [drawsPerRow][]int64) {
	for f, d := range []intn{model.drawAirport, model.drawMonth, model.drawAirline} {
		// Int31n keeps an Int31 up to max, the top 31 bits of the Int63.
		rejected[f] = []int64{(int64(d.max) + 1) << 32, 1<<63 - 1}
		accepted[f] = []int64{int64(d.max)<<32 | (1<<32 - 1), 0}
	}
	// Float64 draws again when the Int63 divided by 1<<63 rounds to 1,
	// which it does from 1<<63 - 512 on.
	rejected[3] = []int64{1<<63 - 512, 1<<63 - 1}
	accepted[3] = []int64{1<<63 - 513, 0}
	return rejected, accepted
}

// TestFlightsRejectedDrawsMatchReference puts the draws rand.Rand rejects,
// for each of the three catalog sizes and for Float64, into the stream
// mid-block, on a block's last row, across a block boundary and in the
// blocks after it, and requires the table the reference draws from the
// same stream.
func TestFlightsRejectedDrawsMatchReference(t *testing.T) {
	model := newFlightModel()
	rejected, accepted := edgeDraws(model)
	const b = flightBlockRows
	rows := 3*b + 7
	for f := 0; f < drawsPerRow; f++ {
		// Each target row gets two rejections of field f, then an accepted
		// edge value. Rows b-1 and 2b-1 end blocks, so their retries take
		// the draws the next block's first row would otherwise take.
		var at []int
		var values []int64
		shift := 0 // rejections scripted so far move later fields on
		for k, row := range []int{17, b - 1, b + 1000, 2*b - 1, 2 * b, 3*b + 6} {
			pos := drawsPerRow*row + f + shift
			for _, v := range rejected[f] {
				at, values = append(at, pos), append(values, v)
				pos++
				shift++
			}
			at, values = append(at, pos), append(values, accepted[f][k%2])
		}
		for _, seed := range []int64{1, 2019} {
			matchesReference(t, fmt.Sprintf("field %d seed %d", f, seed), seed, rows, at, values)
		}
	}
}

// FuzzFlightsMatchesAppendReference replaces draws at fuzzed stream
// positions with acceptance-edge values and requires flightsFrom to match
// the reference over the same stream. Each five bytes of script are one
// replacement: a position, taken modulo the stream the table needs, and
// which edge value.
func FuzzFlightsMatchesAppendReference(f *testing.F) {
	const b = flightBlockRows
	script := func(pairs ...int) []byte {
		var out []byte
		for i := 0; i < len(pairs); i += 2 {
			out = binary.LittleEndian.AppendUint32(out, uint32(pairs[i]))
			out = append(out, byte(pairs[i+1]))
		}
		return out
	}
	f.Add(int64(1), uint32(3*b+7), script(drawsPerRow*b-1, 1, drawsPerRow*b, 3, drawsPerRow*(2*b)-2, 5))
	f.Add(int64(11), uint32(b+1), script(0, 0, 1, 2, 2, 4, 3, 6))
	f.Add(int64(2019), uint32(2*b), script(drawsPerRow*(b+5)+3, 7, drawsPerRow*(b+5)+4, 0))
	f.Add(int64(-7), uint32(5), script())
	model := newFlightModel()
	rejected, accepted := edgeDraws(model)
	var edges []int64
	for k := range rejected {
		edges = append(append(edges, rejected[k]...), accepted[k]...)
	}
	f.Fuzz(func(t *testing.T, seed int64, rows uint32, script []byte) {
		n := 1 + int(rows%(3*b+8))
		positions := map[int]int64{}
		for ; len(script) >= 5; script = script[5:] {
			pos := int(binary.LittleEndian.Uint32(script) % uint32(drawsPerRow*n+8))
			positions[pos] = edges[int(script[4])%len(edges)]
		}
		var at []int
		for pos := range positions {
			at = append(at, pos)
		}
		slices.Sort(at)
		values := make([]int64, len(at))
		for i, pos := range at {
			values[i] = positions[pos]
		}
		matchesReference(t, "fuzzed stream", seed, n, at, values)
	})
}

// genRowReference is the row model as it was first written: rand.Intn and
// rand.Float64, and the planted probability looked up in TableTwelve by
// region and season name.
func genRowReference(fm *flightModel, rng *rand.Rand) (a, m, l int, cancelled float64) {
	a = rng.Intn(len(airportCatalog))
	m = rng.Intn(len(fm.months))
	l = rng.Intn(len(airlineCatalog))
	base := TableTwelve[airportCatalog[a].region][fm.months[m].season]
	p := base * fm.airportFactor[a] * fm.airlineFactor[l] * fm.months[m].factor
	if p > 0.95 {
		p = 0.95
	}
	if rng.Float64() < p {
		cancelled = 1.0
	}
	return a, m, l, cancelled
}

// TestIntnMatchesRandIntn holds the flight generator's drawer to rng.Intn,
// draw for draw and from the same stream, over several seeds: for every
// catalog size, powers of two, random n in [2, 1<<31), and n just above 1<<30,
// where Int31n rejects almost half of its draws.
func TestIntnMatchesRandIntn(t *testing.T) {
	sizes := []int{len(airportCatalog), len(newFlightModel().months), len(airlineCatalog), 1, 2, 64, 1 << 30, 1<<31 - 1}
	pick := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		sizes = append(sizes, 2+pick.Intn(1<<31-2), 1<<30+1+pick.Intn(1<<20))
	}
	for _, seed := range []int64{1, 11, 2019, -7} {
		for _, n := range sizes {
			d := newIntn(n)
			src, ref := rand.NewSource(seed), rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				v := src.Int63()
				for v > d.limit() {
					v = src.Int63()
				}
				if got, want := d.index(v), ref.Intn(n); got != want {
					t.Fatalf("seed %d n %d draw %d: %d, rng.Intn draws %d", seed, n, i, got, want)
				}
			}
			if src.Int63() != ref.Int63() {
				t.Fatalf("seed %d n %d: the drawer took a different number of values from the stream", seed, n)
			}
		}
	}
}

// TestInt63StreamMatchesNewSource holds the seeded stream's recurrence to
// rand.NewSource, value for value, across many refills and read sizes.
func TestInt63StreamMatchesNewSource(t *testing.T) {
	for _, seed := range []int64{0, 1, -7, 2019, 1 << 40} {
		s, ref := seededStream(seed), rand.NewSource(seed)
		buf := make([]int64, 5000)
		for n, size := 0, 1; n < 1<<21; n, size = n+size, (size*7+13)%len(buf)+1 {
			s.read(buf[:size])
			for i, got := range buf[:size] {
				if want := ref.Int63(); got != want {
					t.Fatalf("seed %d value %d: %d, rand.NewSource gives %d", seed, n+i, got, want)
				}
			}
		}
	}
}

// TestUnitFloatLimit holds cut's integer test for the cancellation draw to
// rand.Float64's own: it draws again exactly when the quotient is 1.
func TestUnitFloatLimit(t *testing.T) {
	for v := int64(1<<63 - 1); v > 1<<63-4096; v-- {
		if redraws := float64(v)/(1<<63) == 1; redraws != (v > unitFloatLimit) {
			t.Fatalf("Int63 %d: Float64 draws again %v, cut %v", v, redraws, v > unitFloatLimit)
		}
	}
}

// TestGenRowMatchesTableTwelveLookup holds the row model's precomputed
// table to the map lookups it replaced: the same float for every airport
// and month, and the same row, draw for draw, from the same seed.
func TestGenRowMatchesTableTwelveLookup(t *testing.T) {
	model := newFlightModel()
	for a, airport := range airportCatalog {
		for m, month := range model.months {
			got, want := model.base[a*len(model.months)+m], TableTwelve[airport.region][month.season]
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("base of %s in %s is %v, TableTwelve has %v", airport.code, month.month, got, want)
			}
		}
	}
	for _, seed := range []int64{1, 11, 2019} {
		src, ref := seededStream(seed), rand.New(rand.NewSource(seed))
		var draws [drawsPerRow]int64
		for i := 0; i < 100000; i++ {
			model.cut(src, draws[:])
			a, m, l, c := model.decode(draws[:])
			ra, rm, rl, rc := genRowReference(model, ref)
			if a != ra || m != rm || l != rl || math.Float64bits(c) != math.Float64bits(rc) {
				t.Fatalf("seed %d row %d: (%d, %d, %d, %v), the map lookup draws (%d, %d, %d, %v)", seed, i, a, m, l, c, ra, rm, rl, rc)
			}
		}
	}
}

// TestFlightRowsArePrefixOfFlights holds the ingest rows to the table: both
// decode the same stream through the same row model.
func TestFlightRowsArePrefixOfFlights(t *testing.T) {
	const n = 500
	d, err := Flights(FlightsConfig{Rows: 2 * n, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	tab := d.Table()
	cols := make([]*table.StringColumn, 3)
	for i, name := range []string{"airport", "month", "airline"} {
		if cols[i], err = tab.StringColumn(name); err != nil {
			t.Fatal(err)
		}
	}
	cancelled, err := tab.Float64Column("cancelled")
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range FlightRows(5, n) {
		want := FlightRow{cols[0].StringAt(i), cols[1].StringAt(i), cols[2].StringAt(i), cancelled.Float(i)}
		if r != want {
			t.Fatalf("row %d: %+v, the table has %+v", i, r, want)
		}
	}
}
