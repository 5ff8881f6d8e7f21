// Exploration: a scripted interactive session driving the keyword-based
// query interface of the paper's user study — declarative breakdowns,
// drill-down, filters, and help — with every result vocalized.
//
// Run with:
//
//	go run ./examples/exploration
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/nlq"
	"repro/internal/olap"
	"repro/internal/speech"
	"repro/internal/voice"
)

func main() {
	rows := flag.Int("rows", 100000, "dataset rows")
	flag.Parse()
	dataset, err := datagen.Flights(datagen.FlightsConfig{Rows: *rows, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	session, err := nlq.NewSession(dataset, olap.Avg, "cancelled", "average cancellation probability")
	if err != nil {
		log.Fatal(err)
	}

	script := []string{
		"help",
		"how does cancellation depend on region and season",
		"drill down into the start airport",
		"only flights in Winter",
		"roll up the start airport",
		"clear filters",
		"only flights operated by Alaska Airlines Inc.",
	}

	cfg := core.Config{
		Format:               speech.PercentFormat,
		Seed:                 1,
		Clock:                voice.NewSimClock(),
		MaxRoundsPerSentence: 1500,
		MaxTreeNodes:         50000,
	}

	for _, input := range script {
		fmt.Printf("\n> %s\n", input)
		resp, err := session.Parse(input)
		if err != nil {
			fmt.Println(" ", err)
			continue
		}
		if resp.Message != "" {
			fmt.Println(" ", resp.Message)
		}
		if !resp.IsQuery {
			continue
		}
		out, err := core.NewHolistic(dataset, session.Query(), cfg).Vocalize()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(" ", out.Text())
	}
}
