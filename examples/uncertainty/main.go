// Uncertainty: the Section 4.4 extensions. The same query is vocalized
// three times — plain, with a low-confidence warning when sampling was
// starved, and with spoken confidence bounds before each sentence.
//
// Run with:
//
//	go run ./examples/uncertainty
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/olap"
	"repro/internal/speech"
	"repro/internal/voice"
)

func main() {
	rows := flag.Int("rows", 100000, "dataset rows")
	flag.Parse()
	dataset, err := datagen.Flights(datagen.FlightsConfig{Rows: *rows, Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	query := olap.Query{
		Fct:            olap.Avg,
		Col:            "cancelled",
		ColDescription: "average cancellation probability",
		GroupBy: []olap.GroupBy{
			{Hierarchy: dataset.HierarchyByName("flight date"), Level: 1},
		},
	}

	base := core.Config{
		Format:               speech.PercentFormat,
		Seed:                 1,
		Clock:                voice.NewSimClock(),
		MaxRoundsPerSentence: 2000,
	}

	// Plain output.
	out, err := core.NewHolistic(dataset, query, base).Vocalize()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("plain:")
	fmt.Println(" ", out.Text())

	// Warning mode with starved sampling: the system admits uncertainty.
	warn := base
	warn.Uncertainty = core.UncertaintyWarn
	warn.InitialRows = 8
	warn.RowsPerRound = 1
	warn.MinRounds = 1
	warn.MaxRoundsPerSentence = 2
	warn.WarnRelativeWidth = 0.05
	out, err = core.NewHolistic(dataset, query, warn).Vocalize()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nwarning mode (starved sampling):")
	fmt.Println(" ", out.Text())
	if out.Warning != "" {
		fmt.Println(" ", out.Warning)
	}

	// Bounds mode: confidence intervals spoken before each sentence.
	bounds := base
	bounds.Uncertainty = core.UncertaintyBounds
	out, err = core.NewHolistic(dataset, query, bounds).Vocalize()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nbounds mode transcript:")
	for _, u := range out.Transcript {
		fmt.Printf("  [%5.1fs] %s\n", u.End.Sub(out.Transcript[0].Start).Seconds(), u.Text)
	}
}
