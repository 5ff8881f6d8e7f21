package dimension

import (
	"testing"

	"repro/internal/table"
)

// buildAirportHierarchy creates a small region > state > city hierarchy.
func buildAirportHierarchy(t *testing.T) *Hierarchy {
	t.Helper()
	h, err := NewHierarchy("start airport", "city", "flights starting from", "any airport",
		[]string{"region", "state", "city"})
	if err != nil {
		t.Fatalf("NewHierarchy: %v", err)
	}
	paths := [][]string{
		{"the North East", "New York", "New York City"},
		{"the North East", "New York", "Buffalo"},
		{"the North East", "Massachusetts", "Boston"},
		{"the Midwest", "Illinois", "Chicago"},
		{"the West", "California", "Los Angeles"},
		{"the West", "California", "San Francisco"},
	}
	for _, p := range paths {
		if _, err := h.AddPath(p...); err != nil {
			t.Fatalf("AddPath(%v): %v", p, err)
		}
	}
	return h
}

func TestHierarchyValidation(t *testing.T) {
	if _, err := NewHierarchy("x", "c", "", "any", nil); err == nil {
		t.Fatal("expected error for zero levels")
	}
}

func TestHierarchyStructure(t *testing.T) {
	h := buildAirportHierarchy(t)
	if h.Depth() != 3 {
		t.Errorf("depth = %d, want 3", h.Depth())
	}
	if got := len(h.MembersAt(1)); got != 3 {
		t.Errorf("regions = %d, want 3", got)
	}
	if got := len(h.MembersAt(2)); got != 4 {
		t.Errorf("states = %d, want 4", got)
	}
	if got := len(h.MembersAt(3)); got != 6 {
		t.Errorf("cities = %d, want 6", got)
	}
	if h.MembersAt(0)[0] != h.Root() {
		t.Error("level 0 should hold the root")
	}
	if h.MembersAt(-1) != nil || h.MembersAt(9) != nil {
		t.Error("out-of-range levels should return nil")
	}
}

func TestAddPathReusesPrefixes(t *testing.T) {
	h := buildAirportHierarchy(t)
	ny := h.FindMember("New York")
	if ny == nil {
		t.Fatal("New York not found")
	}
	if len(ny.Children) != 2 {
		t.Errorf("New York should have 2 cities, got %d", len(ny.Children))
	}
	// Re-adding an existing path returns the same leaf.
	leaf1 := h.Leaf("Boston")
	leaf2, err := h.AddPath("the North East", "Massachusetts", "Boston")
	if err != nil {
		t.Fatalf("AddPath: %v", err)
	}
	if leaf1 != leaf2 {
		t.Error("re-adding a path should reuse the leaf")
	}
}

func TestAddPathErrors(t *testing.T) {
	h := buildAirportHierarchy(t)
	if _, err := h.AddPath("too", "short"); err == nil {
		t.Error("expected arity error")
	}
	// Same leaf value under a different path is ambiguous.
	if _, err := h.AddPath("the West", "California", "Boston"); err == nil {
		t.Error("expected ambiguous leaf error")
	}
}

func TestAncestorsAndDescendants(t *testing.T) {
	h := buildAirportHierarchy(t)
	boston := h.Leaf("Boston")
	ne := h.FindMember("the North East")
	if boston.AncestorAt(1) != ne {
		t.Error("Boston's region should be the North East")
	}
	if boston.AncestorAt(3) != boston {
		t.Error("AncestorAt own level should be identity")
	}
	if boston.AncestorAt(4) != nil {
		t.Error("AncestorAt below own level should be nil")
	}
	if !boston.IsDescendantOf(ne) || !boston.IsDescendantOf(h.Root()) {
		t.Error("descendant checks failed")
	}
	mw := h.FindMember("the Midwest")
	if boston.IsDescendantOf(mw) {
		t.Error("Boston is not in the Midwest")
	}
	if got := ne.LeafCount(); got != 3 {
		t.Errorf("NE leaf count = %d, want 3", got)
	}
	if got := len(ne.DescendantsAt(3)); got != 3 {
		t.Errorf("NE cities = %d, want 3", got)
	}
	if got := ne.DescendantsAt(0); len(got) != 1 || got[0] != h.Root() {
		t.Error("DescendantsAt above own level should return the ancestor")
	}
	if got := len(h.Root().DescendantsAt(1)); got != 3 {
		t.Errorf("root regions = %d, want 3", got)
	}
}

func TestLevelNames(t *testing.T) {
	h := buildAirportHierarchy(t)
	if h.LevelName(0) != "all" {
		t.Errorf("level 0 name = %q", h.LevelName(0))
	}
	if h.LevelName(2) != "state" {
		t.Errorf("level 2 name = %q", h.LevelName(2))
	}
}

func TestFindMember(t *testing.T) {
	h := buildAirportHierarchy(t)
	if h.FindMember("chicago") == nil {
		t.Error("FindMember should be case-insensitive")
	}
	if h.FindMember("any airport") != h.Root() {
		t.Error("root should be findable by name")
	}
	if h.FindMember("Atlantis") != nil {
		t.Error("unknown member should be nil")
	}
}

func TestPhrase(t *testing.T) {
	h := buildAirportHierarchy(t)
	ne := h.FindMember("the North East")
	if got := h.Phrase(ne); got != "flights starting from the North East" {
		t.Errorf("Phrase = %q", got)
	}
	if got := h.Phrase(h.Root()); got != "flights starting from any airport" {
		t.Errorf("root phrase = %q", got)
	}
	bare := MustNewHierarchy("d", "c", "", "any", []string{"l"})
	m := bare.MustAddPath("x")
	if got := bare.Phrase(m); got != "x" {
		t.Errorf("contextless phrase = %q", got)
	}
}

func TestMemberString(t *testing.T) {
	h := buildAirportHierarchy(t)
	s := h.Leaf("Boston").String()
	if s == "" {
		t.Error("String should be non-empty")
	}
}

func buildCityTable(t *testing.T, values []string) *table.Table {
	t.Helper()
	c := table.NewStringColumn("city")
	v := table.NewFloat64Column("cancelled")
	for i, s := range values {
		c.Append(s)
		v.Append(float64(i % 2))
	}
	tab, err := table.New("flights", c, v)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestBinding(t *testing.T) {
	h := buildAirportHierarchy(t)
	tab := buildCityTable(t, []string{"Boston", "Chicago", "Boston", "Los Angeles", "Buffalo"})
	b, err := h.Bind(tab)
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	ne := h.FindMember("the North East")
	if got := b.MemberOfRow(0, 1); got != ne {
		t.Errorf("row 0 region = %v, want NE", got)
	}
	if got := b.MemberOfRow(1, 1).Name; got != "the Midwest" {
		t.Errorf("row 1 region = %q", got)
	}
	if !b.RowMatches(0, ne) || b.RowMatches(1, ne) {
		t.Error("RowMatches misbehaves")
	}
	if !b.RowMatches(3, h.Root()) {
		t.Error("every row matches the root")
	}
	if b.Hierarchy() != h {
		t.Error("Binding.Hierarchy mismatch")
	}
	// Leaf-level matching.
	boston := h.Leaf("Boston")
	if !b.RowMatches(2, boston) || b.RowMatches(1, boston) {
		t.Error("leaf-level RowMatches misbehaves")
	}
}

func TestBindingErrors(t *testing.T) {
	h := buildAirportHierarchy(t)
	// Unknown value in column.
	tab := buildCityTable(t, []string{"Boston", "Gotham"})
	if _, err := h.Bind(tab); err == nil {
		t.Error("expected error for unregistered value")
	}
	// Missing column.
	other, err := table.New("t", table.NewFloat64Column("x"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Bind(other); err == nil {
		t.Error("expected error for missing column")
	}
}
