// Streaming ingest: POST /api/ingest appends rows to a registered dataset
// while queries keep running. The first batch lazily gives the dataset a
// live appendable table. It starts on the registered table's column arrays,
// clipped, and moves to arrays of its own when that batch is appended,
// outside s.mu: the originally registered dataset object is never mutated
// and only that ingest waits for the copy. Every accepted batch bumps the
// dataset's cache epoch, which makes all earlier semantic-cache answers
// structurally unreachable before the new rows become visible — the same
// invalidation discipline ReloadDataset uses, at append-batch granularity.

package web

import (
	"errors"
	"fmt"
	"net/http"

	"repro/internal/olap"
	"repro/internal/table"
)

// ingestRequest is the /api/ingest payload. Every row must provide a
// value for every physical column; string values must already be members
// of the column's dictionary (streaming appends cannot invent dimension
// members — that is what keeps live sessions and compiled query scopes
// valid across batches).
type ingestRequest struct {
	Dataset string           `json:"dataset"`
	Rows    []map[string]any `json:"rows"`
}

// ingestResponse acknowledges one accepted batch. A client that has seen
// Epoch acknowledged knows any later answer with DataEpoch >= Epoch
// includes these rows.
type ingestResponse struct {
	Appended  int   `json:"appended"`
	Epoch     int64 `json:"epoch"`
	TotalRows int   `json:"totalRows"`
}

// handleIngest appends one batch of rows to a dataset.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	var req ingestRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Rows) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("rows required"))
		return
	}

	// The first ingest makes the live table, under s.mu so concurrent first
	// batches agree on one. Making it copies no rows: it shares the base
	// table's arrays until AppendBatch below, which holds only the live
	// table's own lock, moves the columns off them.
	s.mu.Lock()
	st, err := s.dataset(req.Dataset)
	if err != nil {
		s.mu.Unlock()
		s.writeCommandError(w, err)
		return
	}
	if st.live == nil {
		live, err := st.info.Dataset.Table().AppendableCopy(st.loadedAt)
		if err != nil {
			s.mu.Unlock()
			writeError(w, http.StatusUnprocessableEntity,
				fmt.Errorf("dataset %q is not streamable: %w", req.Dataset, err))
			return
		}
		st.live = live
	}
	live := st.live
	s.mu.Unlock()

	batch, err := buildRowBatch(live, req.Rows)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	if _, err := live.AppendBatch(batch, s.now()); err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}

	// Publish: snapshot and dataset swap happen under s.mu, so concurrent
	// ingests can only install monotonically growing snapshots, and the
	// epoch bump is ordered before any query can observe the new data.
	s.mu.Lock()
	if s.datasets[req.Dataset] != st || st.live != live {
		// The dataset was reloaded while we appended; the copy we wrote to
		// was discarded with it, so the batch is gone by design.
		s.mu.Unlock()
		writeError(w, http.StatusConflict,
			fmt.Errorf("dataset %q was reloaded during ingest, batch dropped", req.Dataset))
		return
	}
	snap := live.Snapshot()
	ds, err := olap.NewDataset(snap, st.info.Dataset.Hierarchies()...)
	if err != nil {
		s.mu.Unlock()
		s.opts.Logf("web: ingest rebind: %v", err)
		writeError(w, http.StatusInternalServerError, errInternal)
		return
	}
	info := st.info
	info.Dataset = ds
	st.info = info
	st.epoch++
	epoch := st.epoch
	total := snap.NumRows()
	s.mu.Unlock()

	// Old-epoch entries are already unreachable (the epoch is in every
	// key); purging reclaims their memory promptly.
	if s.answers != nil {
		s.answers.PurgePrefix(req.Dataset + "\x00")
	}
	s.ingestBatches.Add(1)
	s.ingestRows.Add(int64(len(req.Rows)))
	writeJSON(w, http.StatusOK, ingestResponse{
		Appended:  len(req.Rows),
		Epoch:     epoch,
		TotalRows: total,
	})
}

// buildRowBatch converts JSON rows into a columnar RowBatch following the
// live table's schema, rejecting unknown and missing columns up front so
// AppendBatch sees only shape-valid input.
func buildRowBatch(live *table.Table, rows []map[string]any) (*table.RowBatch, error) {
	cols := live.Columns()
	names := make(map[string]bool, len(cols))
	for _, c := range cols {
		names[c.Name()] = true
	}
	for i, row := range rows {
		for name := range row {
			if !names[name] {
				return nil, fmt.Errorf("row %d: unknown column %q", i, name)
			}
		}
	}
	b := table.NewRowBatch()
	for _, c := range cols {
		name := c.Name()
		switch c.(type) {
		case *table.Float64Column:
			vals := make([]float64, len(rows))
			for i, row := range rows {
				v, ok := row[name].(float64)
				if !ok {
					return nil, fmt.Errorf("row %d: column %q needs a number", i, name)
				}
				vals[i] = v
			}
			b.Float64s(name, vals...)
		case *table.Int64Column:
			vals := make([]int64, len(rows))
			for i, row := range rows {
				v, ok := row[name].(float64)
				if !ok || v != float64(int64(v)) {
					return nil, fmt.Errorf("row %d: column %q needs an integer", i, name)
				}
				vals[i] = int64(v)
			}
			b.Int64s(name, vals...)
		case *table.StringColumn:
			vals := make([]string, len(rows))
			for i, row := range rows {
				v, ok := row[name].(string)
				if !ok {
					return nil, fmt.Errorf("row %d: column %q needs a string", i, name)
				}
				vals[i] = v
			}
			b.Strings(name, vals...)
		default:
			return nil, fmt.Errorf("column %q: unsupported type for ingest", name)
		}
	}
	return b, nil
}
