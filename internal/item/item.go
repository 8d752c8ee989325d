// Package item defines the data items SEED stores — objects and
// relationships — together with the View interface through which every
// reader (the consistency checker, the completeness checker, the query
// engine, version views, and pattern-spliced views) observes a database
// state.
//
// The package is deliberately free of behaviour: it is the vocabulary shared
// by the engine (internal/core) and the rule checkers (internal/consistency,
// internal/pattern, internal/query), which keeps those packages free of
// import cycles.
package item

import (
	"slices"
	"sort"

	"repro/internal/ident"
	"repro/internal/schema"
	"repro/internal/value"
)

// ID identifies a data item (object or relationship). IDs are allocated
// monotonically by the engine and are never reused, even across version
// selection, so that frozen version deltas always refer to unique items.
type ID uint64

// NoID is the zero, invalid item ID.
const NoID ID = 0

// Kind distinguishes objects from relationships.
type Kind uint8

// The item kinds.
const (
	KindObject Kind = iota + 1
	KindRelationship
)

// String returns "object" or "relationship".
func (k Kind) String() string {
	switch k {
	case KindObject:
		return "object"
	case KindRelationship:
		return "relationship"
	}
	return "item"
}

// NoIndex marks an object that carries no positional index among its
// same-role siblings (sub-classes with maximum cardinality 1).
const NoIndex = ident.NoIndex

// Object is the state of one object. Independent objects have a Name and no
// Parent; dependent objects (sub-objects) have a Parent item, the Role they
// play within it, and — when several same-role siblings may exist — a
// positional Index. Objects of value classes carry a Value.
type Object struct {
	ID     ID
	Class  *schema.Class
	Name   string // independent objects only
	Parent ID     // NoID for independent objects
	Role   string // dependent objects only
	Index  int    // NoIndex when the sub-class cardinality is at most one
	Value  value.Value

	Pattern bool // marked as a pattern (invisible until inherited)
	Deleted bool // deletion mark; physical removal only at compaction
}

// Independent reports whether the object is a top-level, named object.
func (o *Object) Independent() bool { return o.Parent == NoID }

// Component returns the object's name component within its parent.
func (o *Object) Component() ident.Component {
	if o.Independent() {
		return ident.Component{Name: o.Name, Index: ident.NoIndex}
	}
	return ident.Component{Name: o.Role, Index: o.Index}
}

// End is one filled role of a relationship.
type End struct {
	Role   string
	Object ID
}

// Relationship is the state of one relationship. Ends are kept sorted by
// role name. A relationship with Inherits set is the special
// inherits-relationship between a pattern and one of its inheritors; it has
// no Assoc and exactly the ends "pattern" and "inheritor".
type Relationship struct {
	ID    ID
	Assoc *schema.Association
	Ends  []End

	Inherits bool // special pattern-inheritance relationship
	Pattern  bool
	Deleted  bool
}

// Role names of the special inherits-relationship.
const (
	InheritsPatternRole   = "pattern"
	InheritsInheritorRole = "inheritor"
)

// End returns the object filling a role, or NoID.
func (r *Relationship) End(role string) ID {
	for _, e := range r.Ends {
		if e.Role == role {
			return e.Object
		}
	}
	return NoID
}

// HasEnd reports whether some role of the relationship is filled by obj.
func (r *Relationship) HasEnd(obj ID) bool {
	for _, e := range r.Ends {
		if e.Object == obj {
			return true
		}
	}
	return false
}

// RoleOf returns the first role filled by obj and whether one exists.
func (r *Relationship) RoleOf(obj ID) (string, bool) {
	for _, e := range r.Ends {
		if e.Object == obj {
			return e.Role, true
		}
	}
	return "", false
}

// SortEnds establishes the canonical role order.
func (r *Relationship) SortEnds() {
	sort.Slice(r.Ends, func(i, j int) bool { return r.Ends[i].Role < r.Ends[j].Role })
}

// CloneEnds returns an independent copy of the ends slice.
func (r *Relationship) CloneEnds() []End {
	out := make([]End, len(r.Ends))
	copy(out, r.Ends)
	return out
}

// Clone returns a deep copy of the relationship state.
func (r Relationship) Clone() Relationship {
	r.Ends = append([]End(nil), r.Ends...)
	return r
}

// View is a read-only observation of one database state: the live state, the
// view to a saved version, or a pattern-spliced user view. Deleted items are
// invisible through a View. Whether pattern items are visible depends on the
// concrete view: the engine's raw view shows them (the checkers need them),
// the user-facing spliced view hides them and shows inherited items in the
// context of their inheritors instead.
//
// Mutability contract: every result a View hands out — ID slices from
// Children, RelationshipsOf, Objects, and Relationships, and the Ends slice
// inside a returned Relationship — is shared, immutable data. Callers must
// not modify results in place; a caller that needs a mutable copy clones
// explicitly (append to a nil slice, or Relationship.Clone). Implementations
// may return freshly allocated slices, but callers cannot rely on it: the
// frozen snapshot views share one backing array between all readers of a
// generation, and a write through a result would race every other reader.
// The contract is enforced statically by the frozenmut analyzer
// (internal/lint, run by `seedlint ./...` and the CI lint job), which flags
// in-place writes, appends, and sorts on accessor results; the race-mode
// differential tests in internal/core remain the dynamic complement.
type View interface {
	// Schema returns the schema this state is interpreted under.
	Schema() *schema.Schema

	// Object returns the state of an object, if visible.
	Object(id ID) (Object, bool)

	// Relationship returns the state of a relationship, if visible.
	Relationship(id ID) (Relationship, bool)

	// ObjectByName resolves an independent object by name.
	ObjectByName(name string) (ID, bool)

	// Children lists the sub-objects of a parent item in a given role,
	// ordered by index. An empty role lists all sub-objects grouped by role.
	Children(parent ID, role string) []ID

	// RelationshipsOf lists the relationships that have obj as an end,
	// in ascending ID order.
	RelationshipsOf(obj ID) []ID

	// Objects lists all visible objects in ascending ID order.
	Objects() []ID

	// Relationships lists all visible relationships in ascending ID order.
	Relationships() []ID
}

// IndexedView is an optional View extension implemented by views that
// maintain a secondary class index. The query engine starts a by-class
// selection from the index instead of scanning Objects(); views without the
// extension (or wrapping a base without it) keep working through the scan
// path.
type IndexedView interface {
	View

	// ObjectsOfClass lists the visible objects whose exact class has the
	// given qualified name, in ascending ID order, as a shared immutable
	// slice (callers must not modify it). Specializations do not match; the
	// caller expands the class family itself. ok reports whether the view
	// actually maintains an index — false means the caller must fall back
	// to scanning, not that the class is empty. The query executor relies
	// on the list holding only visible objects of that class: it does not
	// re-check their class or visibility.
	ObjectsOfClass(qualified string) (ids []ID, ok bool)
}

// ClassCounter is an optional IndexedView refinement reporting the size of
// a class extent without materializing the list. A wrapping view whose
// ObjectsOfClass filters items out may over-report here (the count is read
// off the wrapped index); the query planner treats the count as a
// cardinality estimate, never as the result. Views without the extension
// are counted by materializing the list instead.
type ClassCounter interface {
	// CountOfClass reports how many objects ObjectsOfClass would list for
	// the qualified name, or an upper bound on it. ok=false mirrors
	// ObjectsOfClass: the view maintains no usable index.
	CountOfClass(qualified string) (n int, ok bool)
}

// NamePrefixView is an optional View extension implemented by views that
// maintain an ordered name index. The query planner turns a prefix name
// glob ("Obj0*") into a range over the index instead of scanning; the
// executor re-checks every candidate against the full glob and the other
// restrictions, so the estimate may over-count (unbound names) without
// affecting results.
type NamePrefixView interface {
	// EstNamePrefix reports an upper bound on the objects whose name
	// starts with prefix. ok=false mirrors ObjectsWithNamePrefix: the
	// view maintains no ordered name index.
	EstNamePrefix(prefix string) (n int, ok bool)

	// ObjectsWithNamePrefix lists the objects whose name starts with
	// prefix, ascending by ID.
	ObjectsWithNamePrefix(prefix string) (ids []ID, ok bool)
}

// InheritsLister is an optional View extension enumerating the live
// inherits-relationships directly, in ascending ID order. A frozen view
// returns a shared immutable slice; the engine's live view returns a fresh
// one. Callers must not mutate the result either way. Pattern splicing
// uses it to avoid scanning every relationship of the view.
type InheritsLister interface {
	InheritsRelationships() []ID
}

// PathMatcher is an optional View extension that compiles a sub-object
// value test once per query instead of walking Children and decoding whole
// objects per candidate. The returned test reports whether some sub-object
// chain below root, following roles, ends in a visible object whose value v
// satisfies op.Holds(v, c). That is the "some path matches" semantics of the
// generic walk over Children and Object, and a view's tests must agree with
// that walk over the same view. The test is safe for concurrent use.
type PathMatcher interface {
	MatchPath(roles []string, op value.Op, c value.Value) func(root ID) bool
}

// PathOf reconstructs the qualified name of an object by walking parents,
// decoding each ancestor once. Objects hanging off relationships
// (relationship attributes) yield a path rooted at the attribute root's own
// component.
func PathOf(v View, id ID) (ident.Path, bool) {
	o, ok := v.Object(id)
	if !ok {
		return nil, false
	}
	var p ident.Path
	for steps := 0; steps < 1_000_000; steps++ { // cycle guard
		p = append(p, o.Component())
		if o.Independent() {
			break
		}
		parent, isObj := v.Object(o.Parent)
		if !isObj {
			// Parent is a relationship: stop at the attribute root.
			break
		}
		o = parent
	}
	slices.Reverse(p)
	return p, true
}

// Resolve navigates a qualified name to an object ID.
func Resolve(v View, p ident.Path) (ID, bool) {
	if len(p) == 0 {
		return NoID, false
	}
	cur, ok := v.ObjectByName(p[0].Name)
	if !ok || p[0].HasIndex() {
		return NoID, false
	}
	for _, c := range p[1:] {
		next := NoID
		for _, ch := range v.Children(cur, c.Name) {
			o, ok := v.Object(ch)
			if !ok {
				continue
			}
			want := c.Index
			if want == ident.NoIndex && o.Index == NoIndex {
				next = ch
				break
			}
			if o.Index == want {
				next = ch
				break
			}
		}
		if next == NoID {
			return NoID, false
		}
		cur = next
	}
	return cur, true
}
