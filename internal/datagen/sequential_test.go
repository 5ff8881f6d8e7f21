package datagen

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/table"
)

// flightsAppendReference is the sequential generator as it was first
// written: one StringColumn.Append per string per row. Seeded datasets,
// golden files and every benchmark quality number were produced by it, so
// flightsSequential must reproduce it byte for byte.
func flightsAppendReference(seed int64, rows int, model *flightModel) (*table.Table, error) {
	rng := rand.New(rand.NewSource(seed))
	airportCol := table.NewStringColumn("airport")
	monthCol := table.NewStringColumn("month")
	airlineCol := table.NewStringColumn("airline")
	cancelledCol := table.NewFloat64Column("cancelled")
	for i := 0; i < rows; i++ {
		a, m, l, cancelled := model.genRow(rng)
		airportCol.Append(airportCatalog[a].code)
		monthCol.Append(model.months[m].month)
		airlineCol.Append(airlineCatalog[l].name)
		cancelledCol.Append(cancelled)
	}
	return table.New("flights", airportCol, monthCol, airlineCol, cancelledCol)
}

func TestFlightsSequentialMatchesAppendReference(t *testing.T) {
	model := newFlightModel()
	// 3 rows leave most catalog entries unseen; 50 000 see them all.
	for _, rows := range []int{3, 50000} {
		for _, seed := range []int64{1, 11, 2019} {
			got, err := flightsSequential(seed, rows, model)
			if err != nil {
				t.Fatal(err)
			}
			want, err := flightsAppendReference(seed, rows, model)
			if err != nil {
				t.Fatal(err)
			}
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
					t.Errorf("seed %d rows %d: %s dictionary %v, reference %v", seed, rows, name, g.Dict(), w.Dict())
				}
				if !reflect.DeepEqual(g.Codes(), w.Codes()) {
					t.Errorf("seed %d rows %d: %s codes differ from the reference", seed, rows, name)
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
				t.Fatalf("seed %d rows %d: %d measures, reference %d", seed, rows, len(g.Values()), len(w.Values()))
			}
			for i, v := range g.Values() {
				if math.Float64bits(v) != math.Float64bits(w.Values()[i]) {
					t.Fatalf("seed %d rows %d: cancelled[%d] = %v, reference %v", seed, rows, i, v, w.Values()[i])
				}
			}
		}
	}
}

// genRowReference is genRow as it was first written: the planted probability
// looked up in TableTwelve by region and season name for every row.
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
			rng, ref := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				if got, want := d.draw(rng), ref.Intn(n); got != want {
					t.Fatalf("seed %d n %d draw %d: %d, rng.Intn draws %d", seed, n, i, got, want)
				}
			}
			if rng.Int63() != ref.Int63() {
				t.Fatalf("seed %d n %d: the drawer took a different number of values from the stream", seed, n)
			}
		}
	}
}

// TestGenRowMatchesTableTwelveLookup holds genRow's precomputed table to the
// map lookups it replaced, which TestFlightsSequentialMatchesAppendReference
// cannot see (its reference calls genRow too): the same float for every
// airport and month, and the same row, draw for draw, from the same seed.
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
		rng, ref := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		for i := 0; i < 100000; i++ {
			a, m, l, c := model.genRow(rng)
			ra, rm, rl, rc := genRowReference(model, ref)
			if a != ra || m != rm || l != rl || math.Float64bits(c) != math.Float64bits(rc) {
				t.Fatalf("seed %d row %d: (%d, %d, %d, %v), the map lookup draws (%d, %d, %d, %v)", seed, i, a, m, l, c, ra, rm, rl, rc)
			}
		}
	}
}
