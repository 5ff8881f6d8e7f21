package speech

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"
)

// TestSuccessorsMatchValid enumerates every speech the successor rule allows
// and every speech Refinements, Extend and Valid allow, depth first in menu
// order, and requires the two lists to be the same, for fragment limits at
// and below zero (no limit) as well as above, under both scope rules.
func TestSuccessorsMatchValid(t *testing.T) {
	for _, disjoint := range []bool{false, true} {
		for _, p := range []Prefs{
			{MaxChars: 400, MaxFragments: -5},
			{MaxChars: 400, MaxFragments: 0},
			{MaxChars: 400, MaxFragments: 1},
			{MaxChars: 400, MaxFragments: 3},
			{MaxChars: 0, MaxFragments: 2},
			{MaxChars: 70, MaxFragments: 3},
			{MaxChars: 40, MaxFragments: 3},
		} {
			g := flightsGenerator(t)
			g.Percents = []int{100}
			g.DisjointScopes = disjoint
			g.Prefs = p
			g.Prefs.SigDigits = 1
			ladder := g.BaselineCandidates(0.02)
			got, want := bySuccessors(g, ladder), byValid(g, ladder)
			if !slices.Equal(got, want) {
				t.Fatalf("disjoint=%v %+v: the rule lists %d speeches, Valid %d; first difference at %s",
					disjoint, p, len(got), len(want), firstDiff(got, want))
			}
			if len(got) < 2 && p.MaxChars != 40 {
				t.Fatalf("disjoint=%v %+v: only %d speeches", disjoint, p, len(got))
			}
			t.Logf("disjoint=%v %+v: %d speeches", disjoint, p, len(got))
		}
	}
}

// key names a speech by its baseline's rung and its refinements' ordinals.
func key(b int, ords []int) string { return fmt.Sprint(b, ords) }

func bySuccessors(g *Generator, ladder []*Baseline) []string {
	var out []string
	var path []int
	var walk func(b int, set []uint64, mainLen int)
	walk = func(b int, set []uint64, mainLen int) {
		out = append(out, key(b, path))
		next := make([]uint64, g.MenuWords())
		for j, w := range set {
			for ; w != 0; w &= w - 1 {
				o := j<<6 + bits.TrailingZeros64(w)
				n := g.Successors(next, set, o, mainLen, len(path)+1)
				path = append(path, o)
				walk(b, next, n)
				path = path[:len(path)-1]
			}
		}
	}
	for i, b := range ladder {
		if g.Opens(b) {
			set := make([]uint64, g.MenuWords())
			walk(i, set, g.After(set, b))
		}
	}
	return out
}

func byValid(g *Generator, ladder []*Baseline) []string {
	var out []string
	ord := map[*Refinement]int{}
	for i, r := range g.Menu() {
		ord[r] = i
	}
	var walk func(b int, sp *Speech)
	walk = func(b int, sp *Speech) {
		var ords []int
		for _, r := range sp.Refinements {
			ords = append(ords, ord[r])
		}
		out = append(out, key(b, ords))
		for _, r := range g.Refinements(sp.Refinements) {
			if ext := sp.Extend(r); ext.Valid(g.Prefs) {
				walk(b, ext)
			}
		}
	}
	for i, b := range ladder {
		if sp := (&Speech{Baseline: b}); sp.Valid(g.Prefs) {
			walk(i, sp)
		}
	}
	return out
}

func firstDiff(a, b []string) string {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return fmt.Sprintf("%d: %s against %s", i, a[i], b[i])
		}
	}
	return "the end of the shorter list"
}
