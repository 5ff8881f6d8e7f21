// Command voicequery is an interactive voice-OLAP session in the terminal:
// it loads one of the synthetic datasets, interprets keyword commands
// exactly like the paper's study interface, and "speaks" the vocalized
// answer by printing it (optionally with real-time playback pacing).
//
// Usage:
//
//	voicequery [-dataset flights|salaries] [-rows N] [-method holistic|optimal|unmerged|prior] [-speak]
//
// Custom data (CSV table plus hierarchy definition files):
//
//	voicequery -table sales.csv -schema "city:string,sales:float" \
//	   -dim "name=location;column=city;context=stores in;def=region.csv" \
//	   -measure sales -measure-desc "average sales" -format plain
//
// Example session:
//
//	> how does cancellation depend on region and season
//	> drill down into the start airport
//	> only flights operated by Alaska Airlines Inc.
//	> help
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/ingest"
	"repro/internal/nlq"
	"repro/internal/olap"
	"repro/internal/speech"
	"repro/internal/voice"
)

// dimFlags collects repeatable -dim flags.
type dimFlags []string

func (d *dimFlags) String() string { return strings.Join(*d, " ") }

func (d *dimFlags) Set(v string) error {
	*d = append(*d, v)
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "voicequery:", err)
		os.Exit(1)
	}
}

func run() error {
	datasetName := flag.String("dataset", "flights", "built-in dataset: flights or salaries")
	rows := flag.Int("rows", 200000, "flight dataset rows (ignored for salaries)")
	method := flag.String("method", "holistic", "vocalizer: holistic, optimal, unmerged, or prior")
	speak := flag.Bool("speak", false, "pace output like real speech playback")
	seed := flag.Int64("seed", 1, "random seed")
	tablePath := flag.String("table", "", "custom data CSV (overrides -dataset)")
	schemaSpec := flag.String("schema", "", "custom data schema, e.g. city:string,sales:float")
	measureCol := flag.String("measure", "", "custom measure column")
	measureDesc := flag.String("measure-desc", "", "spoken measure description")
	formatName := flag.String("format", "plain", "custom value format: percent, thousands, plain, count")
	var dims dimFlags
	flag.Var(&dims, "dim", "custom dimension spec (repeatable): name=…;column=…;context=…;root=…;def=path.csv")
	flag.Parse()

	var (
		dataset *olap.Dataset
		col     string
		desc    string
		format  speech.ValueFormat
		err     error
	)
	switch {
	case *tablePath != "":
		dataset, col, desc, format, err = loadCustom(*tablePath, *schemaSpec, *measureCol, *measureDesc, *formatName, dims)
	case *datasetName == "flights":
		dataset, err = datagen.Flights(datagen.FlightsConfig{Rows: *rows, Seed: *seed})
		col, desc, format = "cancelled", "average cancellation probability", speech.PercentFormat
	case *datasetName == "salaries":
		dataset, err = datagen.Salaries(datagen.SalariesConfig{Seed: *seed})
		col, desc, format = "midCareerSalary", "average mid-career salary", speech.ThousandsFormat
	default:
		return fmt.Errorf("unknown dataset %q", *datasetName)
	}
	if err != nil {
		return err
	}

	sess, err := nlq.NewSession(dataset, olap.Avg, col, desc)
	if err != nil {
		return err
	}

	label := *datasetName
	if *tablePath != "" {
		label = *tablePath
	}
	fmt.Printf("Loaded %s (%d rows). Say 'help' for keywords; 'quit' to exit.\n",
		label, dataset.Table().NumRows())
	scanner := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("> ")
		if !scanner.Scan() {
			break
		}
		input := strings.TrimSpace(scanner.Text())
		if input == "quit" || input == "exit" {
			break
		}
		resp, err := sess.Parse(input)
		if err != nil {
			fmt.Println(err)
			continue
		}
		if resp.Message != "" {
			fmt.Println(resp.Message)
		}
		if !resp.IsQuery {
			continue
		}
		if err := vocalize(dataset, sess.Query(), *method, format, *seed, *speak); err != nil {
			fmt.Println("error:", err)
		}
	}
	return scanner.Err()
}

// loadCustom assembles a dataset from user-provided CSV files.
func loadCustom(tablePath, schemaSpec, measureCol, measureDesc, formatName string, dims []string) (*olap.Dataset, string, string, speech.ValueFormat, error) {
	if measureCol == "" {
		return nil, "", "", 0, fmt.Errorf("custom data needs -measure")
	}
	schema, err := ingest.ParseSchema(schemaSpec)
	if err != nil {
		return nil, "", "", 0, err
	}
	var specs []ingest.DimSpec
	for _, d := range dims {
		spec, err := ingest.ParseDimSpec(d)
		if err != nil {
			return nil, "", "", 0, err
		}
		specs = append(specs, spec)
	}
	dataset, err := ingest.Load("custom", tablePath, schema, specs)
	if err != nil {
		return nil, "", "", 0, err
	}
	desc := measureDesc
	if desc == "" {
		desc = "average " + measureCol
	}
	var format speech.ValueFormat
	switch formatName {
	case "percent":
		format = speech.PercentFormat
	case "thousands":
		format = speech.ThousandsFormat
	case "count":
		format = speech.CountFormat
	case "plain", "":
		format = speech.PlainFormat
	default:
		return nil, "", "", 0, fmt.Errorf("unknown format %q", formatName)
	}
	return dataset, measureCol, desc, format, nil
}

// vocalize runs the chosen approach and prints the answer with its latency.
func vocalize(d *olap.Dataset, q olap.Query, method string, format speech.ValueFormat, seed int64, speak bool) error {
	if method == "prior" {
		out, err := baseline.NewPrior(d, q, baseline.Config{Format: format}).Vocalize()
		if err != nil {
			return err
		}
		fmt.Printf("[latency %v, %d chars]\n", out.Latency.Round(time.Millisecond), len(out.Text))
		emit(out.Text, speak)
		return nil
	}
	cfg := core.Config{
		Format:               format,
		Seed:                 seed,
		Clock:                voice.NewSimClock(),
		MaxRoundsPerSentence: 3000,
		MaxTreeNodes:         100000,
	}
	var v core.Vocalizer
	switch method {
	case "holistic":
		v = core.NewHolistic(d, q, cfg)
	case "optimal":
		v = core.NewOptimal(d, q, cfg)
	case "unmerged":
		v = core.NewUnmerged(d, q, cfg)
	default:
		return fmt.Errorf("unknown method %q", method)
	}
	out, err := v.Vocalize()
	if err != nil {
		return err
	}
	fmt.Printf("[latency %v, %d rows sampled, %d tree samples]\n",
		out.Latency.Round(time.Microsecond), out.RowsRead, out.TreeSamples)
	emit(out.Text(), speak)
	return nil
}

// emit prints text, optionally paced at speaking speed.
func emit(text string, speak bool) {
	if !speak {
		fmt.Println(text)
		return
	}
	for _, sentence := range strings.SplitAfter(text, ". ") {
		fmt.Print(sentence)
		time.Sleep(time.Duration(float64(len(sentence)) / voice.DefaultCharsPerSecond * float64(time.Second)))
	}
	fmt.Println()
}
