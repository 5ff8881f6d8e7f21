package sampling

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/olap"
)

func TestReadRowsContextHonoursCancellation(t *testing.T) {
	s := flightsSpace(t, olap.Avg)
	smp, err := NewSampler(s, rand.New(rand.NewSource(24)))
	if err != nil {
		t.Fatalf("NewSampler: %v", err)
	}
	if got := smp.ReadRowsContext(context.Background(), 100); got != 100 {
		t.Fatalf("ReadRowsContext(background) read %d of 100 rows", got)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// The cancellation check runs before the first row of each 64-row
	// stride, so an already-cancelled context reads nothing.
	if got := smp.ReadRowsContext(ctx, 10000); got != 0 {
		t.Errorf("cancelled read consumed %d rows", got)
	}
}
