package table

import (
	"slices"
	"testing"
)

// starFixture builds a tiny star schema: a fact table with a foreign key
// into an airport dimension table.
func starFixture(t *testing.T) (fact *Table, fk *Int64Column, city *StringColumn) {
	t.Helper()
	// Dimension table rows: 0=BOS/Boston, 1=JFK/New York, 2=ORD/Chicago.
	city = NewStringColumn("city")
	for _, c := range []string{"Boston", "New York", "Chicago"} {
		city.Append(c)
	}
	fk = NewInt64Column("airportID")
	measure := NewFloat64Column("cancelled")
	for _, row := range []struct {
		id        int64
		cancelled float64
	}{
		{0, 1}, {2, 0}, {1, 0}, {0, 0}, {2, 1},
	} {
		fk.Append(row.id)
		measure.Append(row.cancelled)
	}
	fact = MustNew("flights", fk, measure)
	return fact, fk, city
}

func TestJoinBasics(t *testing.T) {
	fact, fk, city := starFixture(t)
	j, err := Join("city", fk, city)
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	if j.Name() != "city" {
		t.Errorf("name = %q", j.Name())
	}
	if j.Len() != fact.NumRows() {
		t.Errorf("len = %d, want %d", j.Len(), fact.NumRows())
	}
	want := []string{"Boston", "Chicago", "New York", "Boston", "Chicago"}
	for i, w := range want {
		if got := j.StringAt(i); got != w {
			t.Errorf("row %d = %q, want %q", i, got, w)
		}
	}
	// Codes follow the dimension attribute's dictionary.
	if j.Code(0) != j.Code(3) || j.CodeOf("Chicago") != city.CodeOf("Chicago") {
		t.Error("joined codes should be the attribute's codes")
	}
	if len(j.Dict()) != 3 {
		t.Errorf("dict = %d entries", len(j.Dict()))
	}
	if err := fact.AddColumn(j); err != nil {
		t.Fatalf("AddColumn: %v", err)
	}
	if sc, err := fact.StringColumn("city"); err != nil || sc != j {
		t.Errorf("StringColumn(city) = %v, %v; want the joined column", sc, err)
	}
}

func TestJoinValidation(t *testing.T) {
	_, fk, city := starFixture(t)
	if _, err := Join("x", nil, city); err == nil {
		t.Error("nil fact column should fail")
	}
	if _, err := Join("x", fk, nil); err == nil {
		t.Error("nil dimension column should fail")
	}
	// Out-of-range foreign key.
	bad := NewInt64Column("airportID")
	bad.Append(99)
	if _, err := Join("x", bad, city); err == nil {
		t.Error("out-of-range FK should fail")
	}
	neg := NewInt64Column("airportID")
	neg.Append(-1)
	if _, err := Join("x", neg, city); err == nil {
		t.Error("negative FK should fail")
	}
}

// TestAccessorResolution resolves names on a star fact table: a joined
// column resolves as a string column, an unknown name or a stored numeric
// column does not.
func TestAccessorResolution(t *testing.T) {
	fact, fk, city := starFixture(t)
	j, err := Join("city", fk, city)
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	if err := fact.AddColumn(j); err != nil {
		t.Fatalf("AddColumn: %v", err)
	}
	if sc, err := fact.StringColumn("city"); err != nil || sc != j {
		t.Errorf("StringColumn(city) = %v, %v; want the joined column", sc, err)
	}
	// Unknown name.
	if _, err := fact.StringColumn("ghost"); err == nil {
		t.Error("unknown column should fail")
	}
	// Non-string stored column.
	if _, err := fact.StringColumn("cancelled"); err == nil {
		t.Error("float column should not resolve as string column")
	}
}

// TestJoinLeavesAttributeUntouched guards the clipped dictionary and the
// copied index: a new value appended to the joined column, while the
// attribute grows too, lands in neither the attribute's dictionary nor its
// index, and the attribute's own append does not overwrite the joined one.
// A star table also streams like any other: its live copy takes a batch,
// which leaves the frozen table's joined column as it was.
func TestJoinLeavesAttributeUntouched(t *testing.T) {
	fact, fk, city := starFixture(t)
	j, err := Join("city", fk, city)
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	if err := fact.AddColumn(j); err != nil {
		t.Fatalf("AddColumn: %v", err)
	}
	live, err := fact.AppendableCopy(streamTime(0))
	if err != nil {
		t.Fatalf("AppendableCopy: %v", err)
	}
	b := NewRowBatch().Int64s("airportID", 2).Float64s("cancelled", 1).Strings("city", "Chicago")
	if _, err := live.AppendBatch(b, streamTime(1)); err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	if got := live.Snapshot().Column("city").StringAt(5); got != "Chicago" {
		t.Errorf("appended row = %q, want Chicago", got)
	}
	if j.Len() != fact.NumRows() {
		t.Errorf("the live batch grew the frozen joined column to %d rows", j.Len())
	}
	before := slices.Clone(city.Dict())
	j.Append("Denver")
	city.Append("Seattle")
	if got, want := city.Dict(), append(before, "Seattle"); !slices.Equal(got, want) {
		t.Errorf("attribute dict = %v, want %v", got, want)
	}
	if city.CodeOf("Denver") != -1 {
		t.Error("a value appended to the joined column entered the attribute's index")
	}
	if got := j.StringAt(j.Len() - 1); got != "Denver" {
		t.Errorf("joined column's last row = %q, want Denver", got)
	}
}
