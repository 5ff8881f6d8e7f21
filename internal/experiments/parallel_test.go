package experiments

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/olap"
)

// TestEvaluateWorkersAcrossFigure3Queries runs the parallel evaluator over
// all eight Figure 3 query shapes, as counts and as sums, and requires
// exact count agreement and 1e-9-relative sum agreement with the
// sequential scan for 1, 2, and NumCPU workers.
func TestEvaluateWorkersAcrossFigure3Queries(t *testing.T) {
	s, err := NewSetup(30000, 3)
	if err != nil {
		t.Fatalf("NewSetup: %v", err)
	}
	workerCounts := []int{1, 2, runtime.NumCPU()}
	for _, spec := range Figure3Queries {
		q, err := s.FlightsQuery(spec.Filter, spec.Dims)
		if err != nil {
			t.Fatalf("query %s,%s: %v", spec.Filter, spec.Dims, err)
		}
		for _, fct := range []olap.AggFunc{olap.Count, olap.Sum} {
			q.Fct = fct
			space, err := olap.NewSpace(s.Flights, q)
			if err != nil {
				t.Fatalf("query %s,%s: NewSpace: %v", spec.Filter, spec.Dims, err)
			}
			seq, err := olap.EvaluateSpaceSequential(space)
			if err != nil {
				t.Fatalf("query %s,%s: sequential: %v", spec.Filter, spec.Dims, err)
			}
			for _, w := range workerCounts {
				par, err := olap.EvaluateSpaceWorkers(space, w)
				if err != nil {
					t.Fatalf("query %s,%s workers %d: %v", spec.Filter, spec.Dims, w, err)
				}
				for a := 0; a < space.Size(); a++ {
					// Counts are exact; sums may differ in the last bits,
					// since workers add their rows in another order.
					pv, sv := par.Value(a), seq.Value(a)
					if fct == olap.Count && pv != sv || math.Abs(pv-sv) > math.Abs(sv)*1e-9+1e-12 {
						t.Errorf("query %s,%s workers %d agg %d: %v %v, sequential %v",
							spec.Filter, spec.Dims, w, a, fct, pv, sv)
					}
				}
			}
		}
	}
}
