package sampling

import (
	"context"
	"math/rand"

	"repro/internal/olap"
	"repro/internal/table"
)

// Sampler pulls rows from a pseudo-random scan of the base table into a
// cache. The holistic planner calls ReadRowsContext once per planning
// round, between search-tree samples, so data access shares each
// sentence's playback window with planning. Once started (Start), a row
// worker classifies the stream ahead on another goroutine and a read only
// folds; until then a read runs both halves of an insert on the caller.
type Sampler struct {
	scanner table.Scanner
	cache   *Cache
	buf     []int
	// ring is the row worker's, nil unless started.
	ring *ring
}

// NewSampler creates a cache for the query of space and a pseudo-random
// row stream seeded from rng.
func NewSampler(space *olap.Space, rng *rand.Rand) (*Sampler, error) {
	return NewSamplerWithScanner(space, table.NewRandomScanner(space.Dataset().Table(), rng))
}

// NewSamplerWithScanner is NewSampler with an explicit row stream, the
// injection point for fault wrappers and alternative scan orders.
func NewSamplerWithScanner(space *olap.Space, scanner table.Scanner) (*Sampler, error) {
	cache, err := NewCache(space)
	if err != nil {
		return nil, err
	}
	return &Sampler{scanner: scanner, cache: cache}, nil
}

// Cache returns the cache the sampler fills.
func (s *Sampler) Cache() *Cache { return s.cache }

// ReadRows pulls up to n rows from the scan into the cache and returns how
// many rows were actually read (fewer once the table is exhausted).
func (s *Sampler) ReadRows(n int) int {
	return s.ReadRowsContext(context.Background(), n)
}

// ReadRowsContext is ReadRows with a cancellation check every 64 rows: it
// stops early and returns the rows read so far once ctx is done, so a
// planning loop under a deadline never overshoots it by a whole batch. Rows
// move in batches through the dense classifier rather than one at a time.
// With the row worker started, a read that finds nothing classified waits
// for the worker or for ctx, whichever comes first.
func (s *Sampler) ReadRowsContext(ctx context.Context, n int) int {
	if s.ring != nil {
		return s.ring.read(ctx, s.cache, n)
	}
	const checkEvery = 64
	if s.buf == nil {
		s.buf = make([]int, checkEvery)
	}
	read := 0
	for read < n && ctx.Err() == nil {
		got := s.scanner.NextBatch(s.buf[:min(n-read, checkEvery)])
		if got == 0 {
			break
		}
		s.cache.InsertBatch(s.buf[:got])
		read += got
	}
	return read
}
