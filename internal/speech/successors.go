package speech

import "math/bits"

// The successor rule of the grammar: which refinement may follow a speech
// prefix. A speech is a baseline and then refinements, one at a time, each
// from the generator's menu; a refinement may follow a prefix when it
// conflicts with none of the prefix's refinements (the same scope, or under
// DisjointScopes an overlapping one), when the main text with it, a joining
// space included, stays within Prefs.MaxChars, and when the prefix holds
// fewer refinements than the fragment limit (Prefs.RefinementLimit). Both
// searches of that space walk the rule: the planner's tree lists a node's
// children with it (ST.EXPAND) and the exact search enumerates every speech
// with it, so the two search the same speeches.
//
// A successor set is a bitset over the menu's ordinals, MenuWords long. The
// rule is incremental: a prefix's set is its parent prefix's set, ANDed
// with the compatibility row of the refinement just added and cut to the
// characters left, so one prefix costs one row however deep it is. The rows
// and the menu's text lengths are built on first use in the menu's slab,
// which the next generator reuses after Release.

// RefinementLimit returns the most refinements a speech may hold under p,
// or 0 when it may hold any number: a MaxFragments of 0 or below sets no
// limit, as Speech.Valid reads it.
func (p Prefs) RefinementLimit() int { return max(p.MaxFragments, 0) }

// Extensible reports whether a speech holding refs refinements may take
// another under p's fragment limit.
func (p Prefs) Extensible(refs int) bool {
	l := p.RefinementLimit()
	return l == 0 || refs < l
}

// Menu returns the refinement menu, built on first use: the candidates a
// successor set's ordinals index, in ordinal order. It is shared; callers
// must not mutate it, nor use it after Release.
func (g *Generator) Menu() []*Refinement { return g.fullMenu() }

// MenuWords returns the length of a successor set: a bitset over the menu.
func (g *Generator) MenuWords() int { return (len(g.fullMenu()) + 63) / 64 }

// Opens reports whether a speech may open with baseline b: whether its
// sentence alone fits the character budget.
func (g *Generator) Opens(b *Baseline) bool {
	return g.Prefs.MaxChars <= 0 || len(b.Text()) <= g.Prefs.MaxChars
}

// After writes to dst the successor set of the speech that is baseline b
// alone and returns that speech's main-text length, which Successors takes
// for the prefixes below it. The fragment limit is at least one refinement
// when there is one, so it drops nothing here.
func (g *Generator) After(dst []uint64, b *Baseline) int {
	m := g.rule()
	n := len(m.ptrs)
	for j := range dst {
		dst[j] = ^uint64(0)
	}
	if tail := n & 63; tail != 0 {
		dst[len(dst)-1] = 1<<tail - 1
	}
	mainLen := len(b.Text())
	g.dropOverflow(dst, mainLen)
	return mainLen
}

// Successors writes to dst the successor set of a prefix once menu
// refinement o is added to it: prev is the prefix's own successor set, which
// holds o, mainLen its main-text length and refs the refinements it holds
// with o. It returns the main-text length with o, which the prefixes below
// take in turn. dst and prev may be the same set.
func (g *Generator) Successors(dst, prev []uint64, o, mainLen, refs int) int {
	m := g.rule()
	mainLen += 1 + int(m.textLen[o])
	if !g.Prefs.Extensible(refs) {
		clear(dst)
		return mainLen
	}
	for j, w := range g.row(o) {
		dst[j] = prev[j] & w
	}
	g.dropOverflow(dst, mainLen)
	return mainLen
}

// rule returns the menu's slab with its text lengths made.
func (g *Generator) rule() *menuSlab {
	g.fullMenu()
	m := g.menu
	if !m.ruled {
		m.textLen, m.maxTextLen = m.textLen[:0], 0
		for _, r := range m.ptrs {
			l := int32(r.TextLen())
			m.textLen = append(m.textLen, l)
			m.maxTextLen = max(m.maxTextLen, l)
		}
		m.compat = m.compat[:0]
		m.ruled = true
	}
	return m
}

// row returns the compatibility row of menu ordinal o, building it on first
// use: bit i is set unless menu[i] conflicts with menu[o].
func (g *Generator) row(o int) []uint64 {
	m := g.menu
	w := (len(m.ptrs) + 63) / 64
	if len(m.compat) == 0 {
		m.compat = zeroed(m.compat, len(m.ptrs)*w)
		m.compatMade = zeroed(m.compatMade, w)
	}
	row := m.compat[o*w : (o+1)*w]
	if m.compatMade[o>>6]&(1<<(o&63)) == 0 {
		for i, c := range m.ptrs {
			if !g.conflicts(m.ptrs[o], c) {
				row[i>>6] |= 1 << (i & 63)
			}
		}
		m.compatMade[o>>6] |= 1 << (o & 63)
	}
	return row
}

// dropOverflow clears from set the refinements that a main text of mainLen
// characters has no room left for, a joining space included. With room for
// the longest it drops none and reads no length.
func (g *Generator) dropOverflow(set []uint64, mainLen int) {
	m := g.menu
	if g.Prefs.MaxChars <= 0 {
		return
	}
	room := g.Prefs.MaxChars - mainLen - 1
	if room >= int(m.maxTextLen) {
		return
	}
	for j, w := range set {
		for ; w != 0; w &= w - 1 {
			o := j<<6 + bits.TrailingZeros64(w)
			if int(m.textLen[o]) > room {
				set[j] &^= 1 << (o & 63)
			}
		}
	}
}

// zeroed returns s cut to n zeroed elements if it has the capacity, and a
// new slice of n otherwise.
func zeroed[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	s = s[:n]
	clear(s)
	return s
}
