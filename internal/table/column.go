// Package table implements the in-memory columnar storage substrate that
// query evaluation and sampling run against. Tables hold typed columns
// (float64, int64, and dictionary-encoded strings), load and store CSV, and
// expose both sequential and pseudo-random row scan streams. The random
// stream is what feeds the sample cache: the holistic algorithm only assumes
// that rows "can be produced without significant startup overheads and at a
// sufficiently high frequency".
package table

import (
	"fmt"
	"strconv"
)

// ColumnType identifies the storage type of a column.
type ColumnType int

// Column types supported by the store.
const (
	Float64Type ColumnType = iota
	Int64Type
	StringType
)

// String implements fmt.Stringer.
func (t ColumnType) String() string {
	switch t {
	case Float64Type:
		return "float64"
	case Int64Type:
		return "int64"
	case StringType:
		return "string"
	default:
		return fmt.Sprintf("ColumnType(%d)", int(t))
	}
}

// Column is a typed column of values. Implementations are append-only.
type Column interface {
	// Name returns the column name.
	Name() string
	// Type returns the storage type.
	Type() ColumnType
	// Len returns the number of stored values.
	Len() int
	// StringAt returns the value at row i rendered as a string.
	StringAt(i int) string
	// appendParsed parses raw and appends it (CSV ingestion).
	appendParsed(raw string) error
}

// Float64Column stores float64 values.
type Float64Column struct {
	name   string
	values []float64
}

// NewFloat64Column returns an empty float64 column with the given name.
func NewFloat64Column(name string) *Float64Column {
	return &Float64Column{name: name}
}

// NewFloat64ColumnFromValues wraps an existing value slice as a column
// without copying. Parallel generators fill disjoint regions of one slice
// and hand it over in a single call; the caller must not modify values
// afterwards.
func NewFloat64ColumnFromValues(name string, values []float64) *Float64Column {
	return &Float64Column{name: name, values: values}
}

// Name returns the column name.
func (c *Float64Column) Name() string { return c.name }

// Type returns Float64Type.
func (c *Float64Column) Type() ColumnType { return Float64Type }

// Len returns the number of values.
func (c *Float64Column) Len() int { return len(c.values) }

// Float returns the value at row i.
func (c *Float64Column) Float(i int) float64 { return c.values[i] }

// StringAt formats the value at row i.
func (c *Float64Column) StringAt(i int) string {
	return strconv.FormatFloat(c.values[i], 'g', -1, 64)
}

// Append adds v to the column.
func (c *Float64Column) Append(v float64) { c.values = append(c.values, v) }

// Values returns the backing slice, clipped to its length so that an
// append to it cannot write into a live copy's rows (callers must not
// modify it).
func (c *Float64Column) Values() []float64 { return c.values[:len(c.values):len(c.values)] }

func (c *Float64Column) appendParsed(raw string) error {
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return fmt.Errorf("table: column %q: %w", c.name, err)
	}
	c.Append(v)
	return nil
}

// Int64Column stores int64 values.
type Int64Column struct {
	name   string
	values []int64
}

// NewInt64Column returns an empty int64 column with the given name.
func NewInt64Column(name string) *Int64Column {
	return &Int64Column{name: name}
}

// Name returns the column name.
func (c *Int64Column) Name() string { return c.name }

// Type returns Int64Type.
func (c *Int64Column) Type() ColumnType { return Int64Type }

// Len returns the number of values.
func (c *Int64Column) Len() int { return len(c.values) }

// StringAt formats the value at row i.
func (c *Int64Column) StringAt(i int) string {
	return strconv.FormatInt(c.values[i], 10)
}

// Append adds v to the column.
func (c *Int64Column) Append(v int64) { c.values = append(c.values, v) }

func (c *Int64Column) appendParsed(raw string) error {
	v, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		return fmt.Errorf("table: column %q: %w", c.name, err)
	}
	c.Append(v)
	return nil
}

// StringColumn stores strings dictionary-encoded: each row holds a compact
// int32 code into a shared dictionary. Dimension lookup tables exploit the
// codes for O(1) row-to-member classification.
type StringColumn struct {
	name  string
	codes []int32
	dict  []string
	index map[string]int32
}

// NewStringColumn returns an empty dictionary-encoded string column.
func NewStringColumn(name string) *StringColumn {
	return &StringColumn{name: name, index: make(map[string]int32)}
}

// NewStringColumnFromCodes builds a column from a pre-built dictionary and
// code slice without re-hashing every row. The dictionary must list
// distinct values and every code must index into it; generators that code
// rows themselves, possibly from several goroutines, hand their codes
// over this way. The column takes ownership of both slices.
func NewStringColumnFromCodes(name string, dict []string, codes []int32) (*StringColumn, error) {
	index := make(map[string]int32, len(dict))
	for i, v := range dict {
		if _, dup := index[v]; dup {
			return nil, fmt.Errorf("table: column %q: duplicate dictionary value %q", name, v)
		}
		index[v] = int32(i)
	}
	for i, code := range codes {
		if code < 0 || int(code) >= len(dict) {
			return nil, fmt.Errorf("table: column %q: row %d code %d outside dictionary of %d",
				name, i, code, len(dict))
		}
	}
	return &StringColumn{name: name, codes: codes, dict: dict, index: index}, nil
}

// Name returns the column name.
func (c *StringColumn) Name() string { return c.name }

// Type returns StringType.
func (c *StringColumn) Type() ColumnType { return StringType }

// Len returns the number of values.
func (c *StringColumn) Len() int { return len(c.codes) }

// StringAt returns the decoded string at row i.
func (c *StringColumn) StringAt(i int) string { return c.dict[c.codes[i]] }

// Codes returns the backing code slice, clipped to its length so that an
// append to it cannot write into a live copy's rows (callers must not
// modify it). Scan loops use it to classify rows with direct array loads
// instead of a method call per row.
func (c *StringColumn) Codes() []int32 { return c.codes[:len(c.codes):len(c.codes)] }

// Append adds v to the column, extending the dictionary if needed.
func (c *StringColumn) Append(v string) {
	code, ok := c.index[v]
	if !ok {
		code = int32(len(c.dict))
		c.dict = append(c.dict, v)
		c.index[v] = code
	}
	c.codes = append(c.codes, code)
}

// Dict returns the dictionary (callers must not modify it).
func (c *StringColumn) Dict() []string { return c.dict }

func (c *StringColumn) appendParsed(raw string) error {
	c.Append(raw)
	return nil
}
