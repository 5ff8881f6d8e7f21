// Command benchrunner regenerates the paper's tables and figures against
// the synthetic datasets and prints them in the same layout.
//
// Usage:
//
//	benchrunner [-exp all|fig3|table2|table5|table6|table7|table8|table9|table11|table12|table13|ablations|datascaling]
//	            [-flight-rows N] [-sessions N] [-seed S]
//
// Pass -flight-rows 5300000 for paper-scale runs (slower; the default
// 200000 preserves the published shapes at a fraction of the time).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchrunner:", err)
		os.Exit(1)
	}
}

func run() error {
	exp := flag.String("exp", "all", "experiment id (all, fig3, table2, table5, table6, table7, table8, table9, table11, table12, table13, ablations, datascaling)")
	flightRows := flag.Int("flight-rows", experiments.DefaultBenchFlightRows, "flight dataset rows (paper: 5300000)")
	sessions := flag.Int("sessions", 20, "exploratory study sessions per dataset")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	fmt.Printf("generating datasets (flights: %d rows)...\n", *flightRows)
	setup, err := experiments.NewSetup(*flightRows, *seed)
	if err != nil {
		return err
	}

	want := func(name string) bool { return *exp == "all" || *exp == name }
	ran := false
	w := os.Stdout

	if want("table11") {
		ran = true
		experiments.PrintTable11(w, experiments.Table11(setup))
		fmt.Fprintln(w)
	}
	if want("table2") {
		ran = true
		res := experiments.Table2(setup)
		experiments.PrintTable2(w, res)
		fmt.Fprintln(w)
		experiments.PrintTable10(w, res)
		fmt.Fprintln(w)
	}
	if want("fig3") {
		ran = true
		rows, err := experiments.Figure3(setup)
		if err != nil {
			return err
		}
		experiments.PrintFigure3(w, rows)
		cmp, err := experiments.PriorOnFlights(setup)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "prior baseline on -,RD: latency %v, %d chars\n\n", cmp.Latency, cmp.SpeechLen)
	}
	if want("table5") {
		ran = true
		rows, err := experiments.Table5(setup)
		if err != nil {
			return err
		}
		experiments.PrintSpeeches(w, "Table 5 — speeches for the region x season query", rows)
		fmt.Fprintln(w)
	}
	if want("table6") {
		ran = true
		studies, err := experiments.Table6And14(setup)
		if err != nil {
			return err
		}
		experiments.PrintTable6And14(w, studies)
		fmt.Fprintln(w)
	}
	if want("table7") {
		ran = true
		facts, err := experiments.Table7(setup)
		if err != nil {
			return err
		}
		experiments.PrintTable7(w, facts)
		fmt.Fprintln(w)
	}
	if want("table8") || want("table9") {
		ran = true
		studies, err := experiments.Table8And9(setup, *sessions)
		if err != nil {
			return err
		}
		experiments.PrintTable8And9(w, studies)
		fmt.Fprintln(w)
	}
	if want("table12") {
		ran = true
		rows, err := experiments.Table12(setup)
		if err != nil {
			return err
		}
		experiments.PrintTable12(w, rows)
		fmt.Fprintln(w)
	}
	if want("table13") {
		ran = true
		rows, err := experiments.Table13(setup)
		if err != nil {
			return err
		}
		experiments.PrintSpeeches(w, "Table 13 — speeches for the state x month query", rows)
		fmt.Fprintln(w)
	}
	if want("ablations") {
		ran = true
		type ablation struct {
			title string
			run   func(*experiments.Setup) ([]experiments.AblationRow, error)
		}
		for _, a := range []ablation{
			{"Ablation — UCT vs uniform tree sampling", experiments.AblationUCTVsUniform},
			{"Ablation — estimate derivation (running mean vs fixed resample)", experiments.AblationResample},
			{"Ablation — relative vs absolute refinements", experiments.AblationRelativeVsAbsolute},
			{"Ablation — belief sigma as fraction of the mean", experiments.AblationSigma},
			{"Ablation — refinement budget k", experiments.AblationFragments},
			{"Ablation — planning rounds per sentence (pipelining budget)", experiments.AblationPlanningBudget},
		} {
			rows, err := a.run(setup)
			if err != nil {
				return err
			}
			experiments.PrintAblation(w, a.title, rows)
			fmt.Fprintln(w)
		}
	}
	if want("datascaling") {
		ran = true
		rows, err := experiments.DataScaling(*seed, nil)
		if err != nil {
			return err
		}
		experiments.PrintDataScaling(w, rows)
		fmt.Fprintln(w)
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q; valid: all fig3 table2 table5 table6 table7 table8 table9 table11 table12 table13 ablations datascaling",
			strings.TrimSpace(*exp))
	}
	return nil
}
