package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
)

// benchmarkSpec is the part of BENCHMARK.json this program reads.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec reads BENCHMARK.json from the repository root, which is the
// working directory or, under `go run -C benchmark`, its parent.
func loadSpec() (*benchmarkSpec, error) {
	var raw []byte
	var err error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if raw, err = os.ReadFile(path); err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// quartiles returns the first and third quartile of xs as Python's
// statistics.quantiles(xs, n=4) does, so a spread computed here is the
// one the driver computes. It needs at least two values and sorts xs.
func quartiles(xs []float64) (q1, q3 float64) {
	sort.Float64s(xs)
	n := len(xs)
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the median,
// 0 for fewer than two values.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	if m := median(xs); m != 0 {
		return (q3 - q1) / m
	}
	return 0
}

// runAgree compares the untraced runs of two result files: for every
// workload and end-to-end metric it prints both medians and whether B is
// within the metric's bound of A, outside it, or unresolved because the
// runs of one side spread wider than the bound. The speed and memory
// metrics that are not gated are judged the same way by the catalog's
// advisory bounds. Any outside, and any failed operation in B that A did
// not have, is an error.
func runAgree(pathA, pathB string) error {
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	metrics := spec.EndToEnd
	for _, m := range spec.PerLayer {
		if m.Bound = catalog[m.Name].advisory; m.Bound > 0 {
			metrics = append(metrics, m)
		}
	}
	values := func(f *resultFile, workload, metric string) (xs []float64, failed int) {
		for _, r := range f.Runs {
			if r.Workload == workload && r.Trace == 0 {
				xs = append(xs, r.Metrics[metric].Value)
				failed += r.Failed
			}
		}
		return xs, failed
	}
	outside := 0
	for _, w := range spec.Workloads {
		for _, m := range metrics {
			xa, failedA := values(a, w.Name, m.Name)
			xb, failedB := values(b, w.Name, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Printf("%-15s %-19s missing from one side\n", w.Name, m.Name)
				continue
			}
			ma, mb := median(xa), median(xb)
			if ma == 0 && mb == 0 {
				continue // an ingest metric on a workload without ingest
			}
			worse := (mb - ma) / ma
			better := func(x, y float64) bool { return x < y }
			if m.Better == "higher" {
				worse = -worse
				better = func(x, y float64) bool { return x > y }
			}
			// xa and xb are sorted by median: B reads better on every run
			// when its worst run beats A's best.
			allBetter := better(xb[len(xb)-1], xa[0]) && better(xb[0], xa[len(xa)-1])
			verdict := "within"
			switch {
			case failedB > failedA:
				verdict = "outside (failed operations)"
			case (spread(xa) > m.Bound || spread(xb) > m.Bound) && !allBetter:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "outside"
			}
			if verdict[0] == 'o' {
				outside++
			}
			kind := "bound"
			if !catalog[m.Name].endToEnd {
				kind = "advisory bound"
			}
			fmt.Printf("%-15s %-19s A %12.6g (n=%d, spread %5.1f%%)  B %12.6g (n=%d, spread %5.1f%%)  worse by %+6.1f%% of %s %4.1f%%  %s\n",
				w.Name, m.Name, ma, len(xa), 100*spread(xa), mb, len(xb), 100*spread(xb), 100*worse, kind, 100*m.Bound, verdict)
		}
	}
	if outside > 0 {
		return errors.New("at least one metric is outside its bound")
	}
	return nil
}
