// Package dimension models OLAP dimension hierarchies: trees of members
// organized into named levels, bound to dictionary-encoded table columns for
// O(1) row-to-member classification, and equipped with the speech context
// templates ("flights starting from …") that the vocalization grammar embeds
// member names into.
package dimension

import (
	"fmt"
	"strings"

	"repro/internal/table"
)

// Member is a node in a dimension hierarchy. Level 0 is the root ("any
// airport"); deeper levels are finer granularities. The root member's scope
// is the entire dimension domain.
type Member struct {
	// Name is the display name used in speech output, e.g. "the North East".
	Name string
	// Level is the depth of this member: 0 for the root.
	Level int
	// Parent is nil for the root.
	Parent *Member
	// Children are the members one level below, in insertion order.
	Children []*Member

	hierarchy *Hierarchy
	id        int // index within levels[Level]
}

// Hierarchy returns the hierarchy this member belongs to.
func (m *Member) Hierarchy() *Hierarchy { return m.hierarchy }

// ID returns the member's index within its level.
func (m *Member) ID() int { return m.id }

// IsRoot reports whether m is the hierarchy root.
func (m *Member) IsRoot() bool { return m.Level == 0 }

// AncestorAt returns the ancestor of m at the given level (possibly m
// itself), or nil if level > m.Level.
func (m *Member) AncestorAt(level int) *Member {
	if level > m.Level {
		return nil
	}
	cur := m
	for cur.Level > level {
		cur = cur.Parent
	}
	return cur
}

// IsDescendantOf reports whether m lies in the subtree rooted at a
// (inclusive: a member is a descendant of itself).
func (m *Member) IsDescendantOf(a *Member) bool {
	return m.AncestorAt(a.Level) == a
}

// LeafCount returns the number of leaf members in m's subtree.
func (m *Member) LeafCount() int {
	if len(m.Children) == 0 {
		return 1
	}
	var n int
	for _, c := range m.Children {
		n += c.LeafCount()
	}
	return n
}

// DescendantsAt returns the members of m's subtree at the given level.
// If level <= m.Level, it returns a single-element slice holding the
// ancestor of m at that level.
func (m *Member) DescendantsAt(level int) []*Member {
	if level <= m.Level {
		return []*Member{m.AncestorAt(level)}
	}
	var out []*Member
	var walk func(x *Member)
	walk = func(x *Member) {
		if x.Level == level {
			out = append(out, x)
			return
		}
		for _, c := range x.Children {
			walk(c)
		}
	}
	walk(m)
	return out
}

// String implements fmt.Stringer.
func (m *Member) String() string {
	return fmt.Sprintf("%s[%d]:%s", m.hierarchy.Name, m.Level, m.Name)
}

// Hierarchy is a dimension with named levels and a member tree. The finest
// level corresponds one-to-one with the values of a source column in the
// base table.
type Hierarchy struct {
	// Name identifies the dimension ("start airport", "flight date", …).
	Name string
	// Column is the base-table column holding finest-level member names.
	Column string
	// Context is the phrase template used to embed member names in speech,
	// e.g. "flights starting from". The member name is appended.
	Context string
	// RootName is the display name for the root member, e.g. "any airport".
	RootName string
	// LevelNames names levels 1..Depth, e.g. ["region", "state", "city",
	// "airport"]. Level 0 (the root) is unnamed.
	LevelNames []string

	root        *Member
	levels      [][]*Member
	leafByValue map[string]*Member
}

// NewHierarchy creates an empty hierarchy. levelNames names the non-root
// levels from coarse to fine; there must be at least one.
func NewHierarchy(name, column, context, rootName string, levelNames []string) (*Hierarchy, error) {
	if len(levelNames) == 0 {
		return nil, fmt.Errorf("dimension %q: need at least one level", name)
	}
	h := &Hierarchy{
		Name:        name,
		Column:      column,
		Context:     context,
		RootName:    rootName,
		LevelNames:  levelNames,
		leafByValue: make(map[string]*Member),
	}
	h.root = &Member{Name: rootName, Level: 0, hierarchy: h}
	h.levels = make([][]*Member, len(levelNames)+1)
	h.levels[0] = []*Member{h.root}
	return h, nil
}

// MustNewHierarchy is NewHierarchy but panics on error; for static schemas.
func MustNewHierarchy(name, column, context, rootName string, levelNames []string) *Hierarchy {
	h, err := NewHierarchy(name, column, context, rootName, levelNames)
	if err != nil {
		panic(err)
	}
	return h
}

// Depth returns the number of non-root levels.
func (h *Hierarchy) Depth() int { return len(h.LevelNames) }

// Root returns the root member.
func (h *Hierarchy) Root() *Member { return h.root }

// MembersAt returns the members at the given level (0 = root). The returned
// slice must not be modified.
func (h *Hierarchy) MembersAt(level int) []*Member {
	if level < 0 || level >= len(h.levels) {
		return nil
	}
	return h.levels[level]
}

// LevelName returns the display name of a level; the root level is "all".
func (h *Hierarchy) LevelName(level int) string {
	if level == 0 {
		return "all"
	}
	if level-1 < len(h.LevelNames) {
		return h.LevelNames[level-1]
	}
	return fmt.Sprintf("level %d", level)
}

// AddPath inserts (or reuses) the chain of members named by path, one name
// per level from level 1 down to the finest level. The finest name is also
// registered as the source-column value for row classification. It returns
// the leaf member. Paths of the wrong length are an error.
func (h *Hierarchy) AddPath(path ...string) (*Member, error) {
	if len(path) != h.Depth() {
		return nil, fmt.Errorf("dimension %q: path %v has %d segments, want %d",
			h.Name, path, len(path), h.Depth())
	}
	cur := h.root
	for i, name := range path {
		level := i + 1
		var next *Member
		for _, c := range cur.Children {
			if c.Name == name {
				next = c
				break
			}
		}
		if next == nil {
			next = &Member{
				Name:      name,
				Level:     level,
				Parent:    cur,
				hierarchy: h,
				id:        len(h.levels[level]),
			}
			cur.Children = append(cur.Children, next)
			h.levels[level] = append(h.levels[level], next)
		}
		cur = next
	}
	if prev, dup := h.leafByValue[cur.Name]; dup && prev != cur {
		return nil, fmt.Errorf("dimension %q: leaf value %q maps to two paths", h.Name, cur.Name)
	}
	h.leafByValue[cur.Name] = cur
	return cur, nil
}

// MustAddPath is AddPath but panics on error.
func (h *Hierarchy) MustAddPath(path ...string) *Member {
	m, err := h.AddPath(path...)
	if err != nil {
		panic(err)
	}
	return m
}

// Leaf returns the finest-level member whose name equals the source-column
// value, or nil if unknown.
func (h *Hierarchy) Leaf(value string) *Member { return h.leafByValue[value] }

// FindMember returns the first member at any level whose name matches
// (case-insensitively), or nil. Useful for keyword query parsing.
func (h *Hierarchy) FindMember(name string) *Member {
	for _, level := range h.levels {
		for _, m := range level {
			if strings.EqualFold(m.Name, name) {
				return m
			}
		}
	}
	return nil
}

// Phrase renders a member for speech output using the dimension context,
// e.g. Phrase(northEast) = "flights starting from the North East".
func (h *Hierarchy) Phrase(m *Member) string {
	if h.Context == "" {
		return m.Name
	}
	return h.Context + " " + m.Name
}

// PhraseLen returns len(h.Phrase(m)) without building the phrase.
func (h *Hierarchy) PhraseLen(m *Member) int {
	if h.Context == "" {
		return len(m.Name)
	}
	return len(h.Context) + 1 + len(m.Name)
}

// Binding maps the dictionary codes of a bound string column to member
// IDs at every level, enabling O(1) per-row classification during scans.
// A star schema binds the same way: table.Join materializes its
// dimension attributes as string columns of the fact table.
type Binding struct {
	hierarchy *Hierarchy
	column    *table.StringColumn
	// memberAt[level][code] is the member at that level for rows whose
	// column code is code, or nil for values absent from the hierarchy.
	memberAt [][]*Member
}

// Bind resolves the hierarchy against a table's source column. Every value
// occurring in the column must be a registered leaf; unknown values are
// reported as an error listing the first offender.
func (h *Hierarchy) Bind(t *table.Table) (*Binding, error) {
	col, err := t.StringColumn(h.Column)
	if err != nil {
		return nil, fmt.Errorf("dimension %q: %w", h.Name, err)
	}
	dict := col.Dict()
	b := &Binding{hierarchy: h, column: col, memberAt: make([][]*Member, h.Depth()+1)}
	for level := 0; level <= h.Depth(); level++ {
		b.memberAt[level] = make([]*Member, len(dict))
	}
	for code, value := range dict {
		leaf := h.Leaf(value)
		if leaf == nil {
			return nil, fmt.Errorf("dimension %q: column value %q is not a registered leaf", h.Name, value)
		}
		for level := 0; level <= h.Depth(); level++ {
			b.memberAt[level][code] = leaf.AncestorAt(level)
		}
	}
	return b, nil
}

// Hierarchy returns the bound hierarchy.
func (b *Binding) Hierarchy() *Hierarchy { return b.hierarchy }

// Column returns the bound column.
func (b *Binding) Column() *table.StringColumn { return b.column }

// DictSize returns the number of distinct codes in the bound column.
func (b *Binding) DictSize() int { return len(b.memberAt[0]) }

// MemberOfCode returns the member at the given level for rows whose column
// holds dictionary code. Scan loops use it once per code at setup time to
// compile per-code lookup tables, then classify rows without touching
// members at all.
func (b *Binding) MemberOfCode(code int32, level int) *Member {
	return b.memberAt[level][code]
}

// MemberOfRow returns the member at the given level for table row i.
func (b *Binding) MemberOfRow(row, level int) *Member {
	return b.memberAt[level][b.column.Code(row)]
}

// RowMatches reports whether table row i falls in the subtree of m.
func (b *Binding) RowMatches(row int, m *Member) bool {
	return b.memberAt[m.Level][b.column.Code(row)] == m
}
