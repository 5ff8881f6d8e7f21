package datagen

import "testing"

// BenchmarkFlights generates the paper's 5.3 M-row flights table, what a
// benchmark boot pays for its dataset, and reports rows per second. Run it
// with -cpu 1,2 to see the block pipeline against the caller's loop alone.
func BenchmarkFlights(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Flights(FlightsConfig{Rows: PaperFlightRows, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)*PaperFlightRows/1e6/b.Elapsed().Seconds(), "Mrows/s")
}
