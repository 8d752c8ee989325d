// Package model is a reference model of SEED's data semantics, written to
// be obviously right rather than fast: two plain maps of item states, one
// index counter per (parent, role), and every read computed by scanning and
// sorting on each call. There are no indexes, no copy-on-write, no
// transactions and no concurrency.
//
// The model never validates. Consistency rules, claims and attached
// procedures are the engine's business: the randomized tests of
// internal/core (TestTorture_*) apply to a Model only the operations the
// engine accepted, with the IDs the engine allocated, and compare the
// engine's views against it over the whole item.View surface. What the model
// does work out by itself is every effect of an accepted operation — the
// class and positional index of a new sub-object, pattern propagation, the
// deletion cascade — so a wrong effect in the engine shows up as a
// difference. Applying an operation the engine would reject is a bug in the
// caller; the model panics or records nonsense.
package model

import (
	"sort"

	"repro/internal/item"
	"repro/internal/schema"
	"repro/internal/value"
)

// Model is one database state. It implements item.View plus the class and
// inherits-list extensions (item.IndexedView, item.InheritsLister).
type Model struct {
	sch  *schema.Schema
	objs map[item.ID]*item.Object       // every known object, deleted included
	rels map[item.ID]*item.Relationship // every known relationship, deleted included
	next map[slot]int                   // next positional index per (parent, role)
}

type slot struct {
	parent item.ID
	role   string
}

// New returns an empty model over a frozen schema.
func New(sch *schema.Schema) *Model {
	return &Model{
		sch:  sch,
		objs: make(map[item.ID]*item.Object),
		rels: make(map[item.ID]*item.Relationship),
		next: make(map[slot]int),
	}
}

// FromView returns a read-only model holding a copy of every item v lists,
// with classes and associations re-resolved by name against sch: a deep
// copy of a saved state that stays comparable after the database reparses
// its schemas on reopen.
func FromView(sch *schema.Schema, v item.View) *Model {
	m := New(sch)
	for _, id := range v.Objects() {
		o, _ := v.Object(id)
		o.Class = sch.MustClass(o.Class.QualifiedName())
		m.objs[id] = &o
	}
	for _, id := range v.Relationships() {
		r, _ := v.Relationship(id)
		r = r.Clone()
		if !r.Inherits {
			r.Assoc = sch.MustAssociation(r.Assoc.Name())
		}
		m.rels[id] = &r
	}
	return m
}

// ---- mutations ----

// CreateObject adds an independent object of a top-level class.
func (m *Model) CreateObject(id item.ID, class, name string, pattern bool) {
	m.objs[id] = &item.Object{ID: id, Class: m.sch.MustClass(class), Name: name,
		Index: item.NoIndex, Pattern: pattern}
}

// CreateSubObject adds a sub-object in role under parent, an object or a
// relationship. Its class is the role resolved against the parent's class or
// association. A class that allows at most one object per parent gets no
// index; any other takes the next index of its (parent, role) counter. A
// sub-object of a pattern belongs to the pattern.
func (m *Model) CreateSubObject(id, parent item.ID, role string) {
	var cls *schema.Class
	var err error
	var pattern bool
	if p, ok := m.objs[parent]; ok {
		cls, err = p.Class.ResolveChild(role)
		pattern = p.Pattern
	} else {
		r := m.rels[parent]
		cls, err = r.Assoc.ResolveChild(role)
		pattern = r.Pattern
	}
	if err != nil {
		panic(err)
	}
	index := item.NoIndex
	if cls.Cardinality().Max != 1 {
		s := slot{parent, role}
		index = m.next[s]
		m.next[s] = index + 1
	}
	m.objs[id] = &item.Object{ID: id, Class: cls, Parent: parent, Role: role,
		Index: index, Pattern: pattern}
}

// SetValue sets (or with value.Undefined clears) an object's value.
func (m *Model) SetValue(id item.ID, v value.Value) { m.objs[id].Value = v }

// CreateRelationship adds a relationship of the named association. It is a
// pattern relationship when any live end is a pattern.
func (m *Model) CreateRelationship(id item.ID, assoc string, ends map[string]item.ID) {
	r := &item.Relationship{ID: id, Assoc: m.sch.MustAssociation(assoc)}
	for role, obj := range ends {
		r.Ends = append(r.Ends, item.End{Role: role, Object: obj})
		if o, ok := m.Object(obj); ok && o.Pattern {
			r.Pattern = true
		}
	}
	r.SortEnds()
	m.rels[id] = r
}

// Inherit adds the inherits-relationship between a pattern and an inheritor.
func (m *Model) Inherit(id, pattern, inheritor item.ID) {
	r := &item.Relationship{ID: id, Inherits: true, Ends: []item.End{
		{Role: item.InheritsInheritorRole, Object: inheritor},
		{Role: item.InheritsPatternRole, Object: pattern},
	}}
	r.SortEnds()
	m.rels[id] = r
}

// Reclassify moves an object to the named class, or a relationship to the
// named association.
func (m *Model) Reclassify(id item.ID, name string) {
	if o, ok := m.objs[id]; ok {
		o.Class = m.sch.MustClass(name)
		return
	}
	m.rels[id].Assoc = m.sch.MustAssociation(name)
}

// SetPattern marks or clears the pattern flag of an object or relationship
// and of every live sub-object below it.
func (m *Model) SetPattern(id item.ID, pattern bool) {
	if r, ok := m.rels[id]; ok {
		r.Pattern = pattern
	}
	m.eachInSubtree(id, func(o *item.Object) { o.Pattern = pattern })
}

// Delete marks a live item deleted together with everything that depends on
// it: its sub-objects, the relationships referencing any deleted object, and
// those relationships' attribute sub-objects.
func (m *Model) Delete(id item.ID) {
	if _, ok := m.Object(id); ok {
		m.objs[id].Deleted = true
		for _, rid := range m.RelationshipsOf(id) {
			m.Delete(rid)
		}
	} else if _, ok := m.Relationship(id); ok {
		m.rels[id].Deleted = true
	} else {
		return
	}
	for _, ch := range m.Children(id, "") {
		m.Delete(ch)
	}
}

// Purge physically removes every deleted item.
func (m *Model) Purge() {
	for id, o := range m.objs {
		if o.Deleted {
			delete(m.objs, id)
		}
	}
	for id, r := range m.rels {
		if r.Deleted {
			delete(m.rels, id)
		}
	}
}

// Restore mirrors a whole-state round trip through the engine (capture every
// item state, restore it): the states survive unchanged, and each (parent,
// role) counter restarts one past the highest index a known sub-object,
// deleted or not, holds there.
func (m *Model) Restore() {
	m.next = make(map[slot]int)
	for _, o := range m.objs {
		if o.Parent == item.NoID || o.Index == item.NoIndex {
			continue
		}
		if s := (slot{o.Parent, o.Role}); o.Index >= m.next[s] {
			m.next[s] = o.Index + 1
		}
	}
}

// eachInSubtree calls fn on the live object id (if it is one) and on every
// live object below id.
func (m *Model) eachInSubtree(id item.ID, fn func(*item.Object)) {
	if o, ok := m.objs[id]; ok && !o.Deleted {
		fn(o)
	}
	for _, ch := range m.Children(id, "") {
		m.eachInSubtree(ch, fn)
	}
}

// ---- item.View ----

// Schema returns the model's schema.
func (m *Model) Schema() *schema.Schema { return m.sch }

// Object returns a live object.
func (m *Model) Object(id item.ID) (item.Object, bool) {
	if o, ok := m.objs[id]; ok && !o.Deleted {
		return *o, true
	}
	return item.Object{}, false
}

// Relationship returns a live relationship.
func (m *Model) Relationship(id item.ID) (item.Relationship, bool) {
	if r, ok := m.rels[id]; ok && !r.Deleted {
		return *r, true
	}
	return item.Relationship{}, false
}

// ObjectByName resolves a live independent object by name.
func (m *Model) ObjectByName(name string) (item.ID, bool) {
	ids := m.objectsWhere(func(o *item.Object) bool { return o.Parent == item.NoID && o.Name == name })
	if len(ids) == 0 {
		return item.NoID, false
	}
	return ids[0], true
}

// Children lists the live sub-objects of parent in role, by index and then
// by ID; the empty role lists them all, by role name first.
func (m *Model) Children(parent item.ID, role string) []item.ID {
	ids := m.objectsWhere(func(o *item.Object) bool {
		return parent != item.NoID && o.Parent == parent && (role == "" || o.Role == role)
	})
	sort.SliceStable(ids, func(i, j int) bool {
		a, b := m.objs[ids[i]], m.objs[ids[j]]
		if a.Role != b.Role {
			return a.Role < b.Role
		}
		return a.Index < b.Index
	})
	return ids
}

// RelationshipsOf lists the live relationships with obj as an end.
func (m *Model) RelationshipsOf(obj item.ID) []item.ID {
	return m.relsWhere(func(r *item.Relationship) bool { return r.HasEnd(obj) })
}

// Objects lists the live objects.
func (m *Model) Objects() []item.ID {
	return m.objectsWhere(func(*item.Object) bool { return true })
}

// Relationships lists the live relationships.
func (m *Model) Relationships() []item.ID {
	return m.relsWhere(func(*item.Relationship) bool { return true })
}

// ObjectsOfClass lists the live objects whose exact class has the qualified
// name.
func (m *Model) ObjectsOfClass(qualified string) ([]item.ID, bool) {
	return m.objectsWhere(func(o *item.Object) bool { return o.Class.QualifiedName() == qualified }), true
}

// InheritsRelationships lists the live inherits-relationships.
func (m *Model) InheritsRelationships() []item.ID {
	return m.relsWhere(func(r *item.Relationship) bool { return r.Inherits })
}

// PatternFree reports that no live item is a pattern and no live
// inherits-relationship exists: the state whose pattern-spliced user view
// is the raw view itself.
func (m *Model) PatternFree() bool {
	return m.objectsWhere(func(o *item.Object) bool { return o.Pattern }) == nil &&
		m.relsWhere(func(r *item.Relationship) bool { return r.Pattern || r.Inherits }) == nil
}

// objectsWhere scans for the live objects keep accepts, ascending by ID; nil
// when there are none.
func (m *Model) objectsWhere(keep func(*item.Object) bool) []item.ID {
	var out []item.ID
	for id, o := range m.objs {
		if !o.Deleted && keep(o) {
			out = append(out, id)
		}
	}
	sortIDs(out)
	return out
}

// relsWhere is objectsWhere for relationships.
func (m *Model) relsWhere(keep func(*item.Relationship) bool) []item.ID {
	var out []item.ID
	for id, r := range m.rels {
		if !r.Deleted && keep(r) {
			out = append(out, id)
		}
	}
	sortIDs(out)
	return out
}

func sortIDs(ids []item.ID) { sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] }) }
