package table

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Table is a named collection of equally sized columns.
//
// Tables come in two flavors. A table built by New is frozen: its contents
// never change and every method is safe for concurrent use. AppendableCopy
// returns a live table that accepts AppendBatch while concurrent readers
// keep working against immutable Snapshot views; on a live table only
// AppendBatch, Snapshot, NumRows, Epoch, Live, and RowsInLast are safe to
// call concurrently — everything else must go through a Snapshot.
type Table struct {
	name    string
	columns []Column
	byName  map[string]int

	// Streaming state. wm is the committed row watermark: rows at indices
	// < wm are immutable and visible; appends write only indices >= wm, so
	// snapshot readers and writers never touch the same memory. epoch
	// counts committed append batches (and is copied onto snapshots, so
	// cache keys derived from it stay comparable). All structural updates
	// happen under mu; wm/epoch are additionally atomic so the cheap
	// accessors need no lock.
	mu       sync.Mutex
	live     atomic.Bool
	wm       atomic.Int64
	epoch    atomic.Int64
	marks    []AppendMark // guarded by mu
	loadedAt time.Time    // stream-time stamp of the pre-append base rows
}

// ErrRaggedColumns reports columns of unequal length.
var ErrRaggedColumns = errors.New("table: columns have unequal lengths")

// New returns a table with the given name and columns. All columns must have
// distinct names and equal lengths.
func New(name string, cols ...Column) (*Table, error) {
	t := &Table{name: name, byName: make(map[string]int, len(cols))}
	for _, c := range cols {
		if err := t.AddColumn(c); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// AddColumn appends a column to the table. The column must be as long as the
// existing columns and its name must be unused. Live tables reject schema
// changes: snapshots share the column set.
func (t *Table) AddColumn(c Column) error {
	if t.live.Load() {
		return fmt.Errorf("table %q: cannot add a column to a live table", t.name)
	}
	if _, dup := t.byName[c.Name()]; dup {
		return fmt.Errorf("table %q: duplicate column %q", t.name, c.Name())
	}
	if len(t.columns) > 0 && c.Len() != t.columns[0].Len() {
		return fmt.Errorf("%w: table %q column %q has %d rows, want %d",
			ErrRaggedColumns, t.name, c.Name(), c.Len(), t.columns[0].Len())
	}
	t.byName[c.Name()] = len(t.columns)
	t.columns = append(t.columns, c)
	return nil
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// NumRows returns the number of rows. On a live table this is the committed
// watermark — rows an in-flight AppendBatch has written but not yet
// committed are invisible.
func (t *Table) NumRows() int {
	if t.live.Load() {
		return int(t.wm.Load())
	}
	if len(t.columns) == 0 {
		return 0
	}
	return t.columns[0].Len()
}

// Columns returns the columns in declaration order.
func (t *Table) Columns() []Column { return t.columns }

// Column returns the column with the given name, or nil if absent.
func (t *Table) Column(name string) Column {
	if i, ok := t.byName[name]; ok {
		return t.columns[i]
	}
	return nil
}

// Float64Column returns the named column as *Float64Column.
func (t *Table) Float64Column(name string) (*Float64Column, error) {
	c := t.Column(name)
	if c == nil {
		return nil, fmt.Errorf("table %q: no column %q", t.name, name)
	}
	fc, ok := c.(*Float64Column)
	if !ok {
		return nil, fmt.Errorf("table %q: column %q is %v, want float64", t.name, name, c.Type())
	}
	return fc, nil
}

// StringColumn returns the named column as *StringColumn.
func (t *Table) StringColumn(name string) (*StringColumn, error) {
	c := t.Column(name)
	if c == nil {
		return nil, fmt.Errorf("table %q: no column %q", t.name, name)
	}
	sc, ok := c.(*StringColumn)
	if !ok {
		return nil, fmt.Errorf("table %q: column %q is %v, want string", t.name, name, c.Type())
	}
	return sc, nil
}

// Validate checks that all columns have equal lengths.
func (t *Table) Validate() error {
	if len(t.columns) == 0 {
		return nil
	}
	n := t.columns[0].Len()
	for _, c := range t.columns[1:] {
		if c.Len() != n {
			return fmt.Errorf("%w: table %q column %q has %d rows, want %d",
				ErrRaggedColumns, t.name, c.Name(), c.Len(), n)
		}
	}
	return nil
}

// ApproxBytes estimates the in-memory footprint of the table payload,
// used to report dataset sizes (Table 11 of the paper).
func (t *Table) ApproxBytes() int64 {
	var total int64
	for _, c := range t.columns {
		switch col := c.(type) {
		case *Float64Column:
			total += int64(col.Len()) * 8
		case *Int64Column:
			total += int64(col.Len()) * 8
		case *StringColumn:
			total += int64(col.Len()) * 4
			for _, s := range col.Dict() {
				total += int64(len(s))
			}
		}
	}
	return total
}
