// Customdata: vocalize your own CSV. This example writes a small sales
// table and a region hierarchy definition to a temp directory, loads them
// through the ingest API, and asks a question — exactly what
// `voicequery -table … -schema … -dim …` does for files you already have.
//
// Run with:
//
//	go run ./examples/customdata
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/nlq"
	"repro/internal/olap"
	"repro/internal/speech"
	"repro/internal/voice"
)

const salesCSV = `store,revenue
Boston Downtown,120000
Boston Airport,95000
Chicago Loop,160000
Chicago North,88000
Seattle Center,145000
Portland East,72000
`

const regionsCSV = `region,city,store
East,Boston,Boston Downtown
East,Boston,Boston Airport
Midwest,Chicago,Chicago Loop
Midwest,Chicago,Chicago North
West,Seattle,Seattle Center
West,Portland,Portland East
`

func main() {
	dir, err := os.MkdirTemp("", "voiceolap-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	dataPath := filepath.Join(dir, "sales.csv")
	defPath := filepath.Join(dir, "regions.csv")
	if err := os.WriteFile(dataPath, []byte(salesCSV), 0o644); err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(defPath, []byte(regionsCSV), 0o644); err != nil {
		log.Fatal(err)
	}

	// 1. Declare the table schema and the dimension.
	schema, err := ingest.ParseSchema("store:string,revenue:float")
	if err != nil {
		log.Fatal(err)
	}
	dim, err := ingest.ParseDimSpec(
		"name=location;column=store;context=stores in;root=any location;def=" + defPath)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Load and bind.
	dataset, err := ingest.Load("sales", dataPath, schema, []ingest.DimSpec{dim})
	if err != nil {
		log.Fatal(err)
	}

	// 3. Explore with the keyword interface.
	session, err := nlq.NewSession(dataset, olap.Avg, "revenue", "average revenue")
	if err != nil {
		log.Fatal(err)
	}
	cfg := core.Config{
		Format:               speech.ThousandsFormat,
		Seed:                 1,
		Clock:                voice.NewSimClock(),
		MaxRoundsPerSentence: 1500,
	}
	for _, input := range []string{
		"break down by region",
		"drill down into the location",
	} {
		fmt.Printf("\n> %s\n", input)
		resp, err := session.Parse(input)
		if err != nil {
			fmt.Println(" ", err)
			continue
		}
		if !resp.IsQuery {
			fmt.Println(" ", resp.Message)
			continue
		}
		out, err := core.NewHolistic(dataset, session.Query(), cfg).Vocalize()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(" ", out.Text())
	}
}
