package sampling

// Nothing in the repository builds a view: the cache tier that planned over
// them is gone. This file stays because benchmark/probes.go:142 times
// BuildView; ROADMAP item 1 removes it.

import (
	"errors"
	"math/rand"

	"repro/internal/olap"
)

// View is a sample view in the spirit of Joshi & Jermaine's sample views,
// which the paper cites as the extension for estimating particularly small
// data subsets (Section 4.3): an ordinary Cache that read every row of the
// table once.
type View struct {
	cache *Cache
}

// BuildView reads every row of the table into a cache for the query of
// space. reservoir is ignored; the cache keeps moments, not rows.
func BuildView(space *olap.Space, reservoir int, rng *rand.Rand) (*View, error) {
	if space == nil || rng == nil {
		return nil, errors.New("sampling: space and rng are required")
	}
	c, err := NewCache(space)
	if err != nil {
		return nil, err
	}
	c.insertRange(0, space.Dataset().Table().NumRows())
	return &View{cache: c}, nil
}
