package table

import (
	"fmt"
	"time"
)

// AppendMark records one committed append batch: the first row it wrote
// and its stream-time arrival stamp. Stamps are supplied by the caller
// (never read from the wall clock), so a replayed ingest stream produces
// bit-identical window resolutions.
type AppendMark struct {
	Start int
	At    time.Time
}

// batchCol is one column of a RowBatch; exactly one payload slice is set.
type batchCol struct {
	name string
	f    []float64
	i    []int64
	s    []string
}

func (c *batchCol) len() int {
	switch {
	case c.f != nil:
		return len(c.f)
	case c.i != nil:
		return len(c.i)
	default:
		return len(c.s)
	}
}

// RowBatch is a columnar batch of rows staged for AppendBatch. Setters
// chain; AppendBatch validates that the batch covers the table schema
// exactly and that all columns carry the same number of rows.
type RowBatch struct {
	cols []batchCol
}

// NewRowBatch returns an empty batch.
func NewRowBatch() *RowBatch { return &RowBatch{} }

// Float64s stages vals for the named float64 column.
func (b *RowBatch) Float64s(name string, vals ...float64) *RowBatch {
	b.cols = append(b.cols, batchCol{name: name, f: vals})
	return b
}

// Int64s stages vals for the named int64 column.
func (b *RowBatch) Int64s(name string, vals ...int64) *RowBatch {
	b.cols = append(b.cols, batchCol{name: name, i: vals})
	return b
}

// Strings stages vals for the named string column. Every value must
// already be in the column's dictionary — streaming appends add facts,
// never dimension members (see AppendBatch).
func (b *RowBatch) Strings(name string, vals ...string) *RowBatch {
	b.cols = append(b.cols, batchCol{name: name, s: vals})
	return b
}

// Len returns the number of rows in the batch (the length of the first
// staged column).
func (b *RowBatch) Len() int {
	if len(b.cols) == 0 {
		return 0
	}
	return b.cols[0].len()
}

// AppendableCopy returns a live table that starts as t's rows and copies
// none of them: each column is a view of t's payload, and string columns
// share t's dictionary and index, which AppendBatch only reads (it rejects
// values outside the dictionary). The first copy of a frozen table keeps
// the spare capacity of t's arrays, which no reader of t can see: its
// appends write there, in place, until they outgrow it. Every later copy of
// the same t, and every copy of a live table, gets views clipped to the
// rows, so its first AppendBatch moves each column to an array of its own
// before it writes a row. Nothing a reader of t, a snapshot or another copy
// of t can see is ever written. The watermark starts at t's current row
// count, and loadedAt stamps the base rows for trailing-window resolution
// (see RowsInLast).
func (t *Table) AppendableCopy(loadedAt time.Time) (*Table, error) {
	src := t.Snapshot()
	n := src.NumRows()
	room := src.roomClaimed.CompareAndSwap(false, true)
	nt := &Table{name: src.name, byName: make(map[string]int, len(src.columns))}
	for _, c := range src.columns {
		cp := columnView(c, n, room)
		if cp == nil {
			return nil, fmt.Errorf("table %q: column %q has unsupported type %v for appends", src.name, c.Name(), c.Type())
		}
		if err := nt.AddColumn(cp); err != nil {
			return nil, err
		}
	}
	nt.loadedAt = loadedAt
	nt.wm.Store(int64(n))
	nt.live.Store(true)
	return nt, nil
}

// columnView is c's first n rows on c's array, sharing a string column's
// dictionary and index. With room it keeps the array's capacity past n;
// without, it is clipped to capacity n, so an append moves the view off
// the array. It is nil for a column type a live table cannot hold.
func columnView(c Column, n int, room bool) Column {
	switch col := c.(type) {
	case *Float64Column:
		return &Float64Column{name: col.name, values: view(col.values, n, room)}
	case *Int64Column:
		return &Int64Column{name: col.name, values: view(col.values, n, room)}
	case *StringColumn:
		return &StringColumn{name: col.name, codes: view(col.codes, n, room), dict: col.dict, index: col.index}
	}
	return nil
}

// view is s[:n], clipped to capacity n unless room.
func view[T any](s []T, n int, room bool) []T {
	if room {
		return s[:n]
	}
	return s[:n:n]
}

// Snapshot returns an immutable view of the committed rows: a frozen Table
// whose column views are clipped to the watermark but share backing arrays
// with the live table (appends only ever write beyond the watermark, so
// the shared prefix never changes). The snapshot carries the append marks
// it was cut at. Snapshotting a frozen table returns the table itself.
func (t *Table) Snapshot() *Table {
	if !t.live.Load() {
		return t
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	wm := int(t.wm.Load())
	nt := &Table{
		name:     t.name,
		byName:   make(map[string]int, len(t.columns)),
		marks:    t.marks[:len(t.marks):len(t.marks)],
		loadedAt: t.loadedAt,
	}
	for _, c := range t.columns {
		cp := columnView(c, wm, false)
		if cp == nil {
			// AppendableCopy is the only way to go live and it rejects
			// other column types.
			panic(fmt.Sprintf("table %q: live table holds unsupported column type %v", t.name, c.Type()))
		}
		nt.byName[cp.Name()] = len(nt.columns)
		nt.columns = append(nt.columns, cp)
	}
	return nt
}

// AppendBatch appends the batch to a live table and commits it at once:
// the watermark advances after all column data is in place, so no reader
// can observe a torn append. The batch must cover every table column
// exactly once with equal row counts, and string values must already be in
// their column dictionaries (dimension catalogs are fixed; facts stream
// in). at is the batch's stream-time stamp; stamps that run backwards are
// clamped to the newest mark so the mark sequence stays monotone.
func (t *Table) AppendBatch(b *RowBatch, at time.Time) (AppendMark, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.live.Load() {
		return AppendMark{}, fmt.Errorf("table %q: append to a frozen table (use AppendableCopy)", t.name)
	}
	n := b.Len()
	start := int(t.wm.Load())
	if n == 0 {
		return AppendMark{Start: start, At: at}, nil
	}
	if len(b.cols) != len(t.columns) {
		return AppendMark{}, fmt.Errorf("table %q: batch has %d columns, want %d", t.name, len(b.cols), len(t.columns))
	}
	// Validate everything — names, lengths, types, dictionary membership —
	// before mutating any column, so a rejected batch leaves the table
	// untouched.
	type plannedCol struct {
		dst   Column
		src   batchCol
		codes []int32
	}
	plan := make([]plannedCol, 0, len(b.cols))
	seen := make(map[string]bool, len(b.cols))
	for _, src := range b.cols {
		if seen[src.name] {
			return AppendMark{}, fmt.Errorf("table %q: batch column %q staged twice", t.name, src.name)
		}
		seen[src.name] = true
		idx, ok := t.byName[src.name]
		if !ok {
			return AppendMark{}, fmt.Errorf("table %q: batch column %q is not in the schema", t.name, src.name)
		}
		if src.len() != n {
			return AppendMark{}, fmt.Errorf("%w: batch column %q has %d rows, want %d",
				ErrRaggedColumns, src.name, src.len(), n)
		}
		p := plannedCol{dst: t.columns[idx], src: src}
		switch dst := t.columns[idx].(type) {
		case *Float64Column:
			if src.f == nil {
				return AppendMark{}, fmt.Errorf("table %q: batch column %q must be float64", t.name, src.name)
			}
		case *Int64Column:
			if src.i == nil {
				return AppendMark{}, fmt.Errorf("table %q: batch column %q must be int64", t.name, src.name)
			}
		case *StringColumn:
			if src.s == nil {
				return AppendMark{}, fmt.Errorf("table %q: batch column %q must be string", t.name, src.name)
			}
			p.codes = make([]int32, n)
			for j, v := range src.s {
				code, known := dst.index[v]
				if !known {
					return AppendMark{}, fmt.Errorf("table %q: column %q: value %q is not in the dictionary (streaming appends cannot add dimension members)",
						t.name, src.name, v)
				}
				p.codes[j] = code
			}
		}
		plan = append(plan, p)
	}
	// Write the payload past the watermark. Readers only ever touch
	// indices below it, so when an append lands in the array snapshots, or
	// the base table the first copy took its room from, share (no
	// reallocation) it writes memory none of them can see.
	for _, p := range plan {
		switch dst := p.dst.(type) {
		case *Float64Column:
			dst.values = append(dst.values, p.src.f...)
		case *Int64Column:
			dst.values = append(dst.values, p.src.i...)
		case *StringColumn:
			dst.codes = append(dst.codes, p.codes...)
		}
	}
	if len(t.marks) > 0 && at.Before(t.marks[len(t.marks)-1].At) {
		at = t.marks[len(t.marks)-1].At
	}
	mark := AppendMark{Start: start, At: at}
	t.marks = append(t.marks, mark)
	t.wm.Store(int64(start + n))
	return mark, nil
}

// RowsInLast resolves a trailing stream-time window of width d to a row
// bound: it returns the index of the first row whose arrival stamp falls
// within d of the newest append mark. Time here is stream time — the
// clock is the newest mark, never the wall — so a frozen snapshot
// resolves the same window forever and window evaluation is bit-identical
// across replays. A table with no append history (or d <= 0) returns 0:
// every row of a static table is current. Base rows loaded before the
// first append are inside the window iff the load stamp is.
func (t *Table) RowsInLast(d time.Duration) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.marks) == 0 || d <= 0 {
		return 0
	}
	cutoff := t.marks[len(t.marks)-1].At.Add(-d)
	for i, m := range t.marks {
		if m.At.Before(cutoff) {
			continue
		}
		if i == 0 && !t.loadedAt.Before(cutoff) {
			return 0
		}
		return m.Start
	}
	// Unreachable: the newest mark is never before its own cutoff.
	return int(t.wm.Load())
}
