package table

import (
	"errors"
	"strings"
	"testing"
)

func sampleTable(t *testing.T) *Table {
	t.Helper()
	f := NewFloat64Column("salary")
	s := NewStringColumn("region")
	i := NewInt64Column("year")
	for idx, row := range []struct {
		sal    float64
		region string
		year   int64
	}{
		{80000, "Northeast", 2014},
		{60000, "Midwest", 2015},
		{90000, "Northeast", 2015},
		{70000, "West", 2014},
	} {
		_ = idx
		f.Append(row.sal)
		s.Append(row.region)
		i.Append(row.year)
	}
	tab, err := New("salaries", f, s, i)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return tab
}

func TestTableBasics(t *testing.T) {
	tab := sampleTable(t)
	if tab.name != "salaries" {
		t.Errorf("name = %q", tab.name)
	}
	if tab.NumRows() != 4 {
		t.Errorf("rows = %d, want 4", tab.NumRows())
	}
	if n := len(tab.Columns()); n != 3 {
		t.Errorf("cols = %d, want 3", n)
	}
	if tab.Column("salary") == nil || tab.Column("missing") != nil {
		t.Error("Column lookup misbehaves")
	}
}

func TestTableDuplicateColumn(t *testing.T) {
	a := NewFloat64Column("x")
	b := NewFloat64Column("x")
	if _, err := New("t", a, b); err == nil {
		t.Fatal("expected duplicate column error")
	}
}

func TestTableRaggedColumns(t *testing.T) {
	a := NewFloat64Column("x")
	a.Append(1)
	b := NewFloat64Column("y")
	if _, err := New("t", a, b); !errors.Is(err, ErrRaggedColumns) {
		t.Fatalf("expected ErrRaggedColumns, got %v", err)
	}
}

func TestTypedColumnAccessors(t *testing.T) {
	tab := sampleTable(t)
	fc, err := tab.Float64Column("salary")
	if err != nil {
		t.Fatalf("Float64Column: %v", err)
	}
	if fc.Float(0) != 80000 {
		t.Errorf("salary[0] = %v", fc.Float(0))
	}
	if _, err := tab.Float64Column("region"); err == nil {
		t.Error("expected type mismatch error")
	}
	if _, err := tab.Float64Column("nope"); err == nil {
		t.Error("expected missing column error")
	}
	sc, err := tab.StringColumn("region")
	if err != nil {
		t.Fatalf("StringColumn: %v", err)
	}
	if sc.StringAt(1) != "Midwest" {
		t.Errorf("region[1] = %q", sc.StringAt(1))
	}
	if _, err := tab.StringColumn("salary"); err == nil {
		t.Error("expected type mismatch error")
	}
	if _, err := tab.StringColumn("nope"); err == nil {
		t.Error("expected missing column error")
	}
}

func TestStringColumnDictEncoding(t *testing.T) {
	c := NewStringColumn("s")
	for _, v := range []string{"a", "b", "a", "c", "b"} {
		c.Append(v)
	}
	if len(c.Dict()) != 3 {
		t.Errorf("dict size = %d, want 3", len(c.Dict()))
	}
	if c.codes[0] != c.codes[2] {
		t.Error("equal strings should share a code")
	}
	if c.Dict()[c.codes[1]] != "b" {
		t.Error("a stored code should decode to its string")
	}
	if _, ok := c.index["zzz"]; ok {
		t.Error("an unknown string should have no code")
	}
}

func TestInt64Column(t *testing.T) {
	c := NewInt64Column("n")
	c.Append(42)
	if c.values[0] != 42 || c.StringAt(0) != "42" {
		t.Error("int column accessors misbehave")
	}
	if c.Type() != Int64Type {
		t.Error("wrong type")
	}
}

func TestColumnTypeString(t *testing.T) {
	if Float64Type.String() != "float64" || Int64Type.String() != "int64" || StringType.String() != "string" {
		t.Error("ColumnType.String misbehaves")
	}
	if !strings.Contains(ColumnType(99).String(), "99") {
		t.Error("unknown type should include code")
	}
}

func TestApproxBytes(t *testing.T) {
	tab := sampleTable(t)
	if tab.ApproxBytes() <= 0 {
		t.Error("ApproxBytes should be positive for non-empty table")
	}
	empty, err := New("e")
	if err != nil {
		t.Fatal(err)
	}
	if empty.ApproxBytes() != 0 {
		t.Error("empty table should have zero bytes")
	}
}

func TestAddColumnAfterConstruction(t *testing.T) {
	tab := sampleTable(t)
	extra := NewFloat64Column("bonus")
	for i := 0; i < 4; i++ {
		extra.Append(float64(i))
	}
	if err := tab.AddColumn(extra); err != nil {
		t.Fatalf("AddColumn: %v", err)
	}
	short := NewFloat64Column("short")
	if err := tab.AddColumn(short); err == nil {
		t.Error("expected ragged column error")
	}
}
