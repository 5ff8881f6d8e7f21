package speech

import (
	"math"
	"sort"
	"sync"

	"repro/internal/dimension"
	"repro/internal/olap"
	"repro/internal/stats"
)

// DefaultPercents is the change-quantifier menu used for refinement
// candidates; the paper's speeches quote 5, 50, 100 and 200 percent.
var DefaultPercents = []int{5, 10, 20, 50, 100, 200}

// DefaultBaselineMultipliers span the ladder of baseline value candidates
// around a scale estimate.
var DefaultBaselineMultipliers = []float64{0.25, 0.5, 0.75, 1, 1.25, 1.5, 2, 3}

// Generator enumerates candidate speech fragments for a query (the SG.*
// functions of the paper). Its output spans the planner's search space.
type Generator struct {
	// Space is the aggregate space of the query.
	Space *olap.Space
	// Prefs constrain candidate speeches.
	Prefs Prefs
	// Format selects value rendering for this query's measure.
	Format ValueFormat
	// Percents is the change-quantifier menu (DefaultPercents if nil).
	Percents []int
	// BaselineMultipliers scale the grand estimate into baseline value
	// candidates (DefaultBaselineMultipliers if nil).
	BaselineMultipliers []float64
	// MaxPredsPerRefinement allows multi-predicate refinements when > 1.
	// The default 1 keeps the branching factor (and thus the O(m^k) tree)
	// small, as the paper's simplicity principle demands.
	MaxPredsPerRefinement int
	// MaxPredicates caps the number of predicate members considered for
	// refinements. Dimensions with hundreds of leaf members (e.g. 320
	// colleges) would otherwise blow up the branching factor m; keeping
	// the coarsest members serves the grammar's abstraction goal. Zero
	// means DefaultMaxPredicates.
	MaxPredicates int
	// DisjointScopes forbids refinements whose scopes overlap an earlier
	// refinement's scope. This emulates a grammar with *absolute* instead
	// of relative refinements (Example 3.2: after an absolute claim about
	// the North East, no overlapping claim about salary ranges can follow
	// without contradiction) and exists for the ablation benchmarks.
	DisjointScopes bool

	// menu holds the full candidate set once built; tree expansion filters
	// it per node, sharing the refinement structs across the tree.
	menu *menuSlab
}

// menuSlab is the storage of a generator's refinement menu: the
// refinements, the pointers the menu hands out and the predicate lists, one
// slice each. Release hands it to the next generator's menu, which rewrites
// it.
type menuSlab struct {
	refs  []Refinement
	ptrs  []*Refinement
	preds []*dimension.Member
}

// slabs holds the menus of released generators.
var slabs sync.Pool

// NewGenerator returns a generator with the paper's default configuration.
func NewGenerator(space *olap.Space, prefs Prefs, format ValueFormat) *Generator {
	return &Generator{
		Space:                 space,
		Prefs:                 prefs,
		Format:                format,
		Percents:              DefaultPercents,
		BaselineMultipliers:   DefaultBaselineMultipliers,
		MaxPredsPerRefinement: 1,
	}
}

// NewPreamble builds the preamble for the query (SG.preamble): the filter
// scope per dimension of the dataset and the group-by level names.
func (g *Generator) NewPreamble() *Preamble {
	q := g.Space.Query()
	d := g.Space.Dataset()
	p := &Preamble{}
	for _, h := range d.Hierarchies() {
		m := q.FilterOn(h)
		if m == nil {
			m = h.Root()
		}
		p.ScopePhrases = append(p.ScopePhrases, h.Phrase(m))
	}
	for _, gb := range q.GroupBy {
		p.LevelNames = append(p.LevelNames, gb.Hierarchy.LevelName(gb.Level))
	}
	return p
}

// BaselineCandidates returns baseline statements whose values ladder around
// the scale estimate (typically a grand estimate from early samples, or the
// exact grand value for the optimal baseline). Values are rounded to the
// speech precision and deduplicated. A non-positive or NaN scale yields a
// single zero-valued baseline.
func (g *Generator) BaselineCandidates(scale float64) []*Baseline {
	q := g.Space.Query()
	name := q.ColDescription
	if name == "" {
		name = q.Fct.String() + " " + q.Col
	}
	mults := g.BaselineMultipliers
	if mults == nil {
		mults = DefaultBaselineMultipliers
	}
	if math.IsNaN(scale) || scale <= 0 {
		return []*Baseline{{Value: 0, AggName: name, Format: g.Format}}
	}
	seen := make(map[float64]bool)
	var values []float64
	for _, m := range mults {
		v := g.Prefs.RoundForSpeech(scale * m)
		if !seen[v] {
			seen[v] = true
			values = append(values, v)
		}
	}
	sort.Float64s(values)
	out := make([]*Baseline, len(values))
	for i, v := range values {
		out[i] = &Baseline{Value: v, AggName: name, Format: g.Format}
	}
	return out
}

// DefaultMaxPredicates bounds the predicate menu; see MaxPredicates.
const DefaultMaxPredicates = 48

// predicates enumerates the admissible refinement predicates: members of
// the group-by hierarchies at every level from 1 down to the group level,
// restricted to the query's filter scope, excluding roots (a root predicate
// would cover the whole result and carry no information) and excluding
// members whose scope covers all aggregates. When the menu exceeds
// MaxPredicates, coarse members win: levels are consumed round-robin
// across dimensions from coarse to fine until the budget is spent.
func (g *Generator) predicates() []*dimension.Member {
	budget := g.MaxPredicates
	if budget <= 0 {
		budget = DefaultMaxPredicates
	}
	n := g.Space.Size()
	q := g.Space.Query()
	// byLevel[level-relative-depth][dim] keeps enumeration coarse-first.
	type dimScope struct {
		scope    *dimension.Member
		maxLevel int
	}
	var scopes []dimScope
	for _, gb := range q.GroupBy {
		scope := gb.Hierarchy.Root()
		if f := q.FilterOn(gb.Hierarchy); f != nil {
			scope = f
		}
		scopes = append(scopes, dimScope{scope: scope, maxLevel: gb.Level})
	}
	var out []*dimension.Member
	for depth := 1; ; depth++ {
		progressed := false
		for _, ds := range scopes {
			level := ds.scope.Level + depth
			if level > ds.maxLevel {
				continue
			}
			progressed = true
			for _, m := range ds.scope.DescendantsAt(level) {
				sz := g.Space.ScopeSize([]*dimension.Member{m})
				if sz > 0 && sz < n {
					out = append(out, m)
					if len(out) >= budget {
						return out
					}
				}
			}
		}
		if !progressed {
			return out
		}
	}
}

// fullMenu builds (once) every admissible refinement candidate: predicate
// combinations crossed with the change menu. The structs are shared across
// all speeches derived from this generator, and their text is rendered only
// for the few that are spoken. They are built in a released generator's
// menu if the pool holds one.
func (g *Generator) fullMenu() []*Refinement {
	if g.menu != nil {
		return g.menu.ptrs
	}
	preds := g.predicates()
	percents := g.Percents
	if percents == nil {
		percents = DefaultPercents
	}
	slab, _ := slabs.Get().(*menuSlab)
	if slab == nil {
		slab = new(menuSlab)
	}
	ps, refs := slab.preds[:0], slab.refs[:0]
	// emit adds the refinements over the last n predicates of ps, or takes
	// those predicates back when their scope is empty or everything. A list
	// that ps outgrows stays where it was, in the array before.
	emit := func(n int) {
		scope := ps[len(ps)-n : len(ps) : len(ps)]
		ss := g.Space.ScopeSet(scope)
		m := ss.Size()
		if m == 0 || m >= g.Space.Size() {
			ps = ps[:len(ps)-n]
			return
		}
		for _, pct := range percents {
			refs = append(refs, Refinement{Preds: scope, Dir: Increase, Percent: pct, ScopeSize: m, Scope: ss})
			// "Values decrease by 100 percent" would claim zero (and
			// beyond 100, negative) values; natural speech caps decreases
			// below that.
			if pct < 100 {
				refs = append(refs, Refinement{Preds: scope, Dir: Decrease, Percent: pct, ScopeSize: m, Scope: ss})
			}
		}
	}
	for _, p := range preds {
		ps = append(ps, p)
		emit(1)
	}
	if g.MaxPredsPerRefinement > 1 {
		for i, p := range preds {
			for _, q := range preds[i+1:] {
				if p.Hierarchy() == q.Hierarchy() {
					continue
				}
				ps = append(ps, p, q)
				emit(2)
			}
		}
	}
	// The pointers are taken once refs has stopped growing.
	ptrs := slab.ptrs[:0]
	for i := range refs {
		ptrs = append(ptrs, &refs[i])
	}
	slab.refs, slab.ptrs, slab.preds = refs, ptrs, ps
	g.menu = slab
	return ptrs
}

// Release hands the generator's menu to the next generator built. Nothing
// the menu handed out may be used after it, since another answer's menu
// overwrites it: a speech that outlives its answer holds copies (Detach). A
// later call on the generator builds a new menu.
func (g *Generator) Release() {
	if g.menu == nil {
		return
	}
	slab := g.menu
	g.menu = nil
	// A released menu keeps nothing of its answer alive.
	clear(slab.refs)
	clear(slab.preds)
	slabs.Put(slab)
}

// Refinements returns the candidate next refinements for a speech with the
// given existing refinements (SG.Refinements): the full candidate menu
// minus the candidates that Conflicts with one of them. With no existing
// refinements it is the shared menu itself, uncopied. Validity against
// length constraints is checked separately by the caller via Speech.Valid
// (ST.IsValid in the paper's pseudo-code). The returned refinements are
// shared; callers must not mutate them, nor use them after Release.
func (g *Generator) Refinements(prev []*Refinement) []*Refinement {
	menu := g.fullMenu()
	if len(prev) == 0 {
		return menu
	}
	out := make([]*Refinement, 0, len(menu))
	for _, c := range menu {
		used := false
		for _, r := range prev {
			if g.Conflicts(r, c) {
				used = true
				break
			}
		}
		if !used {
			out = append(out, c)
		}
	}
	return out
}

// Conflicts reports whether candidate c can no longer follow a speech that
// already contains r: the two address the same scope, or DisjointScopes is
// set and their scopes share an aggregate. It is a pure function of the
// pair and allocates nothing for menu refinements, so the search tree asks
// it once per pair of menu entries instead of copying a filtered menu per
// node.
func (g *Generator) Conflicts(r, c *Refinement) bool {
	return r.SameScope(c) || (g.DisjointScopes && g.overlaps(r, c))
}

// overlaps reports whether two refinement scopes share any aggregate. The
// scope of the combined predicates is the intersection of the two scopes.
func (g *Generator) overlaps(a, b *Refinement) bool {
	return g.scopeOf(a).Intersects(g.scopeOf(b))
}

// scopeOf returns r's membership bitset: precomputed on menu refinements,
// looked up in the space's cache for hand-built ones.
func (g *Generator) scopeOf(r *Refinement) *olap.ScopeSet {
	if r.Scope != nil {
		return r.Scope
	}
	return g.Space.ScopeSet(r.Preds)
}

// SpeechScale derives a robust positive scale from a grand estimate,
// guarding against zero and NaN so baseline ladders stay well formed.
func SpeechScale(grand float64) float64 {
	if math.IsNaN(grand) || grand <= 0 {
		return 0
	}
	return stats.RoundSig(grand, 2)
}
