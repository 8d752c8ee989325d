// Package fixture exercises the frozenmut analyzer. View and snap stand in
// for item.View and the engine's frozen snapshot views: every slice an
// accessor hands out is shared, and the Ends slice of a returned Rel is
// shared too.
package fixture

import "sort"

// End mirrors item.End.
type End struct {
	Role   string
	Object int
}

// Rel mirrors item.Relationship.
type Rel struct {
	ID   int
	Ends []End
}

// SortEnds establishes canonical role order, in place.
func (r *Rel) SortEnds() {
	sort.Slice(r.Ends, func(i, j int) bool { return r.Ends[i].Role < r.Ends[j].Role })
}

// Clone returns an independent copy.
func (r Rel) Clone() Rel {
	r.Ends = append([]End(nil), r.Ends...)
	return r
}

// View mirrors the item.View accessor set the analyzer knows about.
type View interface {
	Objects() []int
	Children(parent int, role string) []int
	RelationshipsOf(obj int) []int
	Relationship(id int) (Rel, bool)
}

type snap struct {
	objects []int
	rels    map[int]Rel
}

func (s snap) Objects() []int                         { return s.objects }
func (s snap) Children(parent int, role string) []int { return s.objects }
func (s snap) RelationshipsOf(obj int) []int          { return s.objects }
func (s snap) Relationship(id int) (Rel, bool)        { r, ok := s.rels[id]; return r, ok }

var _ View = snap{}

func mutations(v View) {
	ids := v.Objects()
	ids[0] = 99                                                     // want `write into the shared slice`
	ids[0]++                                                        // want `increment of an element of the shared slice`
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] }) // want `sort\.Slice sorts/mutates a shared frozen-view slice`
	sort.Ints(ids)                                                  // want `sort\.Ints sorts/mutates a shared frozen-view slice`
	_ = append(ids, 1)                                              // want `append to a shared frozen-view slice`

	kids := v.Children(1, "Description")
	copy(kids, ids) // want `copy into a shared frozen-view slice`
	p := &kids[0]   // want `taking the address of an element`
	_ = p
}

func relMutations(v View) {
	r, ok := v.Relationship(7)
	if !ok {
		return
	}
	r.SortEnds()         // want `SortEnds reorders the shared Ends slice`
	r.Ends[0].Role = "x" // want `write into the shared slice`
	r.Ends[0].Object = 3 // want `write into the shared slice`
}

// Taint survives reassignment and reslicing.
func aliasing(v View) {
	ids := v.Objects()
	alias := ids
	alias[1] = 2 // want `write into the shared slice`
	head := ids[:1]
	head[0] = 3 // want `write into the shared slice`
}

// cache is package state shared between callers of sharedIDs.
var cache []int

// sharedIDs returns the shared cache; callers must clone before mutating.
//
//seedlint:frozen
func sharedIDs() []int { return cache }

func localAccessor() {
	ids := sharedIDs()
	ids[0] = 1 // want `write into the shared slice`
}

// Cloning launders the value: everything below is contract-respecting.
func clean(v View) {
	ids := append([]int(nil), v.Objects()...)
	sort.Ints(ids)
	ids[0] = 1
	ids = append(ids, 2)

	r, ok := v.Relationship(7)
	if !ok {
		return
	}
	c := r.Clone()
	c.SortEnds()
	c.Ends[0].Role = "y"

	total := 0
	for _, k := range v.Children(1, "") {
		total += k
	}
	_ = total
}

// Reassigning a tainted variable from a fresh value clears the taint.
func laundered(v View) {
	ids := v.Objects()
	ids = make([]int, 4)
	ids[0] = 1
}

// colTable stands in for the columnar store: its accessors hand out shared
// immutable slices and carry the directive on the method declarations.
type colTable struct {
	kids map[int][]int
}

// children returns the shared per-parent list; callers must clone before
// mutating.
//
//seedlint:frozen
func (t *colTable) children(parent int) []int { return t.kids[parent] }

// table is an interface: the directive on an interface method field covers
// dispatched calls too.
type table interface {
	//seedlint:frozen
	children(parent int) []int

	// insert is an ordinary mutator: no directive, results untracked.
	insert(parent, child int)
}

func (t *colTable) insert(parent, child int) { t.kids[parent] = append(t.kids[parent], child) }

var _ table = (*colTable)(nil)

// Positive: mutation through a marked method, concrete and dispatched.
func methodAccessors(t *colTable, ti table) {
	kids := t.children(1)
	kids[0] = 9 // want `write into the shared slice`
	sort.Ints(ti.children(2)) // want `sort\.Ints sorts/mutates a shared frozen-view slice`
}

// Negative: cloning launders, unmarked methods are untracked, and fresh
// reassignment clears the taint.
func methodAccessorsClean(t *colTable, ti table) {
	kids := append([]int(nil), t.children(1)...)
	kids[0] = 9
	sort.Ints(kids)
	ti.insert(1, 2)
	more := ti.children(3)
	more = make([]int, 1)
	more[0] = 4
}

// run stands in for item.Run: the directive sits on a method of a generic
// type and covers the calls on every instantiation.
type run[T any] struct{ flat []T }

// slice returns the shared flat slice; callers must clone before mutating.
//
//seedlint:frozen
func (r *run[T]) slice() []T { return r.flat }

func genericAccessor(r *run[int]) {
	ids := r.slice()
	ids[0] = 1 // want `write into the shared slice`
	own := append([]int(nil), r.slice()...)
	own[0] = 1
}
