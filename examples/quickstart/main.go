// Quickstart: vocalize one OLAP query over the college-salary dataset.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/olap"
	"repro/internal/speech"
	"repro/internal/voice"
)

func main() {
	// 1. Load a dataset: a table plus dimension hierarchies.
	dataset, err := datagen.Salaries(datagen.SalariesConfig{Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	location := dataset.HierarchyByName("college location")
	start := dataset.HierarchyByName("start salary")

	// 2. Pose the paper's running example: average mid-career salary,
	// broken down by graduation region and rough start salary.
	query := olap.Query{
		Fct:            olap.Avg,
		Col:            "midCareerSalary",
		ColDescription: "average mid-career salary",
		GroupBy: []olap.GroupBy{
			{Hierarchy: location, Level: 1},
			{Hierarchy: start, Level: 1},
		},
	}

	// 3. Vocalize it with the holistic approach. The simulated clock makes
	// the run instant; a real application would play each sentence as it
	// is committed.
	cfg := core.Config{
		Format:               speech.ThousandsFormat,
		Seed:                 1,
		Clock:                voice.NewSimClock(),
		MaxRoundsPerSentence: 2000,
	}
	out, err := core.NewHolistic(dataset, query, cfg).Vocalize()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Spoken answer:")
	fmt.Println(" ", out.Text())
	fmt.Printf("\nlatency to first output: %v\n", out.Latency.Round(time.Microsecond))
	fmt.Printf("rows sampled: %d, tree samples: %d\n", out.RowsRead, out.TreeSamples)

	// 4. Score the speech against the exact result (Definition 2.2).
	quality, err := core.ExactQuality(dataset, query, out, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exact speech quality: %.3f\n", quality)
}
