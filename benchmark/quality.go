package main

import (
	"encoding/json"
	"fmt"

	"repro/internal/belief"
	"repro/internal/encode"
	"repro/internal/olap"
	"repro/internal/semcache"
)

// exact is the exact evaluation of one canonical query and the belief
// model speeches are scored with.
type exact struct {
	result *olap.Result
	model  *belief.Model
}

// oracle scores speeches with the paper's exact quality metric
// (Definition 2.2), as core.ExactQuality does, but evaluates each
// canonical query once instead of once per speech: the full scan is what
// costs.
type oracle struct {
	d       *olap.Dataset
	byQuery map[string]*exact
}

func newOracle(d *olap.Dataset) *oracle {
	return &oracle{d: d, byQuery: map[string]*exact{}}
}

// exactFor evaluates q over the oracle's dataset. The time window is
// dropped first: the oracle's table is frozen, and on a frozen table a
// windowed query covers every row.
func (o *oracle) exactFor(q olap.Query) (*exact, error) {
	q.Window = olap.Window{}
	key := semcache.Key(q)
	if e := o.byQuery[key]; e != nil {
		return e, nil
	}
	space, err := olap.NewSpace(o.d, q)
	if err != nil {
		return nil, err
	}
	result, err := olap.EvaluateSpace(space)
	if err != nil {
		return nil, err
	}
	sigma := belief.SigmaFromScale(result.GrandValue())
	if sigma <= 0 {
		sigma = 1
	}
	model, err := belief.NewModel(space, sigma)
	if err != nil {
		return nil, err
	}
	e := &exact{result: result, model: model}
	o.byQuery[key] = e
	return e, nil
}

// quality scores one heard answer from its structured wire form.
func (o *oracle) quality(h *heard) (float64, error) {
	var enc encode.Speech
	if err := json.Unmarshal([]byte(h.structured), &enc); err != nil {
		return 0, err
	}
	sp, err := encode.DecodeSpeech(o.d, enc)
	if err != nil {
		return 0, err
	}
	e, err := o.exactFor(h.req.Query)
	if err != nil {
		return 0, fmt.Errorf("query of %q: %w", h.req.Input, err)
	}
	return e.model.Quality(sp, e.result), nil
}

// meanQuality is the mean exact quality over every answer the clients
// heard, each distinct (query, speech) pair scored once.
func (o *oracle) meanQuality(clients []*clientRun) (float64, error) {
	var sum float64
	var n int
	for _, c := range clients {
		for _, h := range c.heard {
			q, err := o.quality(h)
			if err != nil {
				return 0, err
			}
			sum += q * float64(h.count)
			n += h.count
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("no answers to score")
	}
	return sum / float64(n), nil
}
