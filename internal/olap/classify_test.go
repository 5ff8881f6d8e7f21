package olap

import (
	"slices"
	"testing"

	"repro/internal/dimension"
	"repro/internal/table"
)

// referenceClassify is the pre-dense classification logic, kept as the
// oracle: per-row member lookup through the binding plus a map lookup into
// the member position table.
func referenceClassify(s *Space, row int) (int, bool) {
	for _, f := range s.extraFilters {
		if !f.binding.RowMatches(row, f.member) {
			return 0, false
		}
	}
	idx := 0
	for d, b := range s.bindings {
		m := b.MemberOfRow(row, s.levels[d])
		p, within := s.memberPos[d][m]
		if !within {
			return 0, false
		}
		idx += p * s.strides[d]
	}
	return idx, true
}

// classifyQueries builds query shapes that exercise every dense-table path:
// plain group-by, group-by with a narrowing filter, and an extra filter on
// a non-grouped dimension.
func classifyQueries(f *fixture) []Query {
	return []Query{
		f.regionSeasonQuery(),
		{
			Fct: Avg, Col: "cancelled",
			Filters: []*dimension.Member{f.airport.FindMember("the North East")},
			GroupBy: []GroupBy{{Hierarchy: f.date, Level: 2}},
		},
		{
			Fct: Count,
			Filters: []*dimension.Member{
				f.airport.FindMember("the Midwest"),
				f.date.FindMember("Winter"),
			},
			GroupBy: []GroupBy{{Hierarchy: f.date, Level: 2}},
		},
	}
}

func TestClassifyRowMatchesReference(t *testing.T) {
	f := newFixture(t)
	for qi, q := range classifyQueries(f) {
		s, err := NewSpace(f.dataset, q)
		if err != nil {
			t.Fatalf("query %d: NewSpace: %v", qi, err)
		}
		n := f.dataset.Table().NumRows()
		for row := 0; row < n; row++ {
			wantIdx, wantOK := referenceClassify(s, row)
			gotIdx, gotOK := s.ClassifyRow(row)
			if wantOK != gotOK || (wantOK && wantIdx != gotIdx) {
				t.Errorf("query %d row %d: ClassifyRow = (%d,%v), reference (%d,%v)",
					qi, row, gotIdx, gotOK, wantIdx, wantOK)
			}
		}
	}
}

func TestClassifyBatchesMatchClassifyRow(t *testing.T) {
	f := newFixture(t)
	for qi, q := range classifyQueries(f) {
		s, err := NewSpace(f.dataset, q)
		if err != nil {
			t.Fatalf("query %d: NewSpace: %v", qi, err)
		}
		n := f.dataset.Table().NumRows()
		rows := make([]int, n)
		for i := range rows {
			rows[i] = n - 1 - i // scattered (reversed) gather order
		}
		byRows := make([]int32, n)
		s.ClassifyRows(rows, byRows)
		byRange := make([]int32, n)
		s.ClassifyRange(0, n, byRange)
		for i := 0; i < n; i++ {
			idx, ok := s.ClassifyRow(i)
			want := int32(idx)
			if !ok {
				want = -1
			}
			if byRange[i] != want {
				t.Errorf("query %d row %d: ClassifyRange = %d, want %d", qi, i, byRange[i], want)
			}
			if byRows[n-1-i] != want {
				t.Errorf("query %d row %d: ClassifyRows = %d, want %d", qi, i, byRows[n-1-i], want)
			}
		}
	}
}

// TestClassifyJoinedMatchesFlat checks the star-schema path: a column that
// table.Join materialized from a dimension table classifies every row as
// the denormalized column holding the same values does, through ClassifyRow,
// ClassifyRows and ClassifyRange, as a group-by and as a filter.
func TestClassifyJoinedMatchesFlat(t *testing.T) {
	cities := []string{"Boston", "Chicago", "Los Angeles"}
	attr := table.NewStringColumn("city")
	for _, c := range []string{"Los Angeles", "Boston", "Chicago", "Boston"} {
		attr.Append(c)
	}
	const n = 60
	fk := table.NewInt64Column("cityID")
	flat := table.NewStringColumn("cityFlat")
	cancelled := table.NewFloat64Column("cancelled")
	for i := 0; i < n; i++ {
		k := (i * 7) % attr.Len()
		fk.Append(int64(k))
		flat.Append(attr.StringAt(k))
		cancelled.Append(float64(i % 2))
	}
	tab, err := table.New("facts", fk, flat, cancelled)
	if err != nil {
		t.Fatal(err)
	}
	join, err := table.Join("city", fk, attr)
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	if err := tab.AddColumn(join); err != nil {
		t.Fatalf("AddColumn: %v", err)
	}

	mkHierarchy := func(name, col string) *dimension.Hierarchy {
		h := dimension.MustNewHierarchy(name, col, "flights from", "any city", []string{"city"})
		for _, c := range cities {
			h.MustAddPath(c)
		}
		return h
	}
	viaJoin := mkHierarchy("joined city", "city")
	viaFlat := mkHierarchy("flat city", "cityFlat")
	d, err := NewDataset(tab, viaJoin, viaFlat)
	if err != nil {
		t.Fatalf("NewDataset: %v", err)
	}
	// A space groups by one column and keeps the rows whose other column
	// holds filter, so a row is in scope exactly when it holds filter.
	mkSpace := func(group, other *dimension.Hierarchy, filter string) *Space {
		s, err := NewSpace(d, Query{
			Fct: Avg, Col: "cancelled",
			Filters: []*dimension.Member{other.FindMember(filter)},
			GroupBy: []GroupBy{{Hierarchy: group, Level: 1}},
		})
		if err != nil {
			t.Fatalf("NewSpace: %v", err)
		}
		return s
	}
	rows := make([]int, n)
	for i := range rows {
		rows[i] = n - 1 - i
	}
	for _, filter := range cities {
		for _, s := range []*Space{mkSpace(viaJoin, viaFlat, filter), mkSpace(viaFlat, viaJoin, filter)} {
			byRange := make([]int32, n)
			s.ClassifyRange(0, n, byRange)
			byRows := make([]int32, n)
			s.ClassifyRows(rows, byRows)
			for row := 0; row < n; row++ {
				want := int32(-1)
				if flat.StringAt(row) == filter {
					want = int32(slices.Index(cities, filter))
				}
				got := int32(-1)
				if idx, ok := s.ClassifyRow(row); ok {
					got = int32(idx)
				}
				if got != want || byRange[row] != want || byRows[n-1-row] != want {
					t.Errorf("filter %s row %d: ClassifyRow %d, ClassifyRange %d, ClassifyRows %d, want %d",
						filter, row, got, byRange[row], byRows[n-1-row], want)
				}
			}
		}
	}
}
