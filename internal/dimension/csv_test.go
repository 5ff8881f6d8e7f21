package dimension

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

const airportDefCSV = `region,state,city
the North East,New York,New York City
the North East,New York,Buffalo
the North East,Massachusetts,Boston
the Midwest,Illinois,Chicago
the West,California,Los Angeles
`

func TestFromCSV(t *testing.T) {
	h, err := FromCSV("start airport", "city", "flights starting from", "any airport",
		strings.NewReader(airportDefCSV))
	if err != nil {
		t.Fatalf("FromCSV: %v", err)
	}
	if h.Depth() != 3 {
		t.Errorf("depth = %d, want 3", h.Depth())
	}
	if h.LevelName(1) != "region" || h.LevelName(3) != "city" {
		t.Errorf("level names = %v", h.LevelNames)
	}
	if got := len(h.MembersAt(1)); got != 3 {
		t.Errorf("regions = %d, want 3", got)
	}
	boston := h.Leaf("Boston")
	if boston == nil || boston.AncestorAt(1).Name != "the North East" {
		t.Error("Boston path broken")
	}
}

func TestFromCSVErrors(t *testing.T) {
	// Empty input: no header.
	if _, err := FromCSV("d", "c", "", "any", strings.NewReader("")); err == nil {
		t.Error("empty definition should fail")
	}
	// Header only: no members.
	if _, err := FromCSV("d", "c", "", "any", strings.NewReader("region,city\n")); err == nil {
		t.Error("member-less definition should fail")
	}
	// Ragged row.
	bad := "region,city\nNE\n"
	if _, err := FromCSV("d", "c", "", "any", strings.NewReader(bad)); err == nil {
		t.Error("ragged row should fail")
	}
	// Ambiguous leaf.
	dup := "region,city\nNE,Boston\nMW,Boston\n"
	if _, err := FromCSV("d", "c", "", "any", strings.NewReader(dup)); err == nil {
		t.Error("duplicate leaf under two paths should fail")
	}
}

// airportDefPaths are airportDefCSV's data rows: the leaf paths FromCSV
// must parse, in file order.
var airportDefPaths = [][]string{
	{"the North East", "New York", "New York City"},
	{"the North East", "New York", "Buffalo"},
	{"the North East", "Massachusetts", "Boston"},
	{"the Midwest", "Illinois", "Chicago"},
	{"the West", "California", "Los Angeles"},
}

// requireAirportDef fails t unless h is what airportDefCSV defines: its
// levels, the members of each level, and every leaf's path.
func requireAirportDef(t *testing.T, h *Hierarchy) {
	t.Helper()
	if want := []string{"region", "state", "city"}; !slices.Equal(h.LevelNames, want) {
		t.Errorf("levels = %v, want %v", h.LevelNames, want)
	}
	for level, want := range map[int]int{1: 3, 2: 4, 3: 5} {
		if got := len(h.MembersAt(level)); got != want {
			t.Errorf("level %d has %d members, want %d", level, got, want)
		}
	}
	for _, path := range airportDefPaths {
		leaf := h.Leaf(path[2])
		if leaf == nil {
			t.Errorf("no leaf %q", path[2])
			continue
		}
		for level := 1; level <= 3; level++ {
			if got := leaf.AncestorAt(level).Name; got != path[level-1] {
				t.Errorf("leaf %q has %q at level %d, want %q", path[2], got, level, path[level-1])
			}
		}
	}
}

// TestCSVRoundTrip: every row of a definition comes back as a leaf path of
// the hierarchy FromCSV parsed, under the header's levels.
func TestCSVRoundTrip(t *testing.T) {
	h, err := FromCSV("start airport", "city", "flights starting from", "any airport",
		strings.NewReader(airportDefCSV))
	if err != nil {
		t.Fatalf("FromCSV: %v", err)
	}
	requireAirportDef(t, h)
}

func TestFromCSVFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "airport.csv")
	if err := os.WriteFile(path, []byte(airportDefCSV), 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	h, err := FromCSVFile("start airport", "city", "", "any airport", path)
	if err != nil {
		t.Fatalf("FromCSVFile: %v", err)
	}
	requireAirportDef(t, h)
	if _, err := FromCSVFile("x", "c", "", "any", filepath.Join(dir, "missing.csv")); err == nil {
		t.Error("missing file should fail")
	}
}
