// Package schema implements the SEED schema system: hierarchically
// structured object classes, associations (relationship classes) with roles
// and cardinalities, generalization hierarchies over both classes and
// associations, covering conditions, ACYCLIC constraints, and attached
// procedures.
//
// A schema partitions its information into two categories (paper, section
// "Incomplete data"):
//
//   - consistency information — class and association membership, maximum
//     cardinalities, ACYCLIC conditions, and attached procedures — enforced
//     by the engine on every update;
//   - completeness information — minimum cardinalities and covering
//     conditions for generalizations — checked only by explicit
//     completeness operations.
//
// Schemas are built with the mutator methods (AddClass, AddAssociation, …)
// and then frozen with Freeze, which validates the whole schema and makes it
// immutable. Schema evolution derives a new, higher-versioned schema from a
// frozen one via Evolve (paper: "we must generate schema versions, too").
package schema

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/ident"
)

// Errors returned by schema construction and lookup.
var (
	ErrFrozen         = errors.New("schema: schema is frozen")
	ErrNotFrozen      = errors.New("schema: schema is not frozen")
	ErrDuplicate      = errors.New("schema: duplicate definition")
	ErrUnknownClass   = errors.New("schema: unknown class")
	ErrUnknownAssoc   = errors.New("schema: unknown association")
	ErrUnknownRole    = errors.New("schema: unknown role")
	ErrBadGeneralize  = errors.New("schema: invalid generalization")
	ErrBadDefinition  = errors.New("schema: invalid definition")
	ErrValueClass     = errors.New("schema: value class cannot have sub-classes")
	ErrNotValueClass  = errors.New("schema: class carries no value")
	ErrAcyclicBinary  = errors.New("schema: ACYCLIC requires a binary association over one class family")
	ErrCoveringLeaves = errors.New("schema: covering requires at least one specialization")
)

// Schema is a complete SEED schema: the definition of what kinds of data may
// be stored (figure 2 of the paper is an example).
type Schema struct {
	name    string
	version int
	frozen  bool

	tops      []*Class // top-level classes, in definition order
	classes   map[string]*Class
	assocList []*Association
	assocs    map[string]*Association
}

// New creates an empty, mutable schema with version 1.
func New(name string) *Schema {
	return &Schema{
		name:    name,
		version: 1,
		classes: make(map[string]*Class),
		assocs:  make(map[string]*Association),
	}
}

// Name returns the schema name.
func (s *Schema) Name() string { return s.name }

// Version returns the schema version number; Evolve increments it.
func (s *Schema) Version() int { return s.version }

// Frozen reports whether the schema has been validated and made immutable.
func (s *Schema) Frozen() bool { return s.frozen }

// TopClasses returns the top-level classes in definition order.
func (s *Schema) TopClasses() []*Class {
	out := make([]*Class, len(s.tops))
	copy(out, s.tops)
	return out
}

// Associations returns all associations in definition order.
func (s *Schema) Associations() []*Association {
	out := make([]*Association, len(s.assocList))
	copy(out, s.assocList)
	return out
}

// Class looks up a class by qualified name, e.g. "Data.Text.Body".
func (s *Schema) Class(qualified string) (*Class, error) {
	c, ok := s.classes[qualified]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownClass, qualified)
	}
	return c, nil
}

// MustClass is Class for known-good names; it panics on error.
func (s *Schema) MustClass(qualified string) *Class {
	c, err := s.Class(qualified)
	if err != nil {
		panic(err)
	}
	return c
}

// Association looks up an association by name.
func (s *Schema) Association(name string) (*Association, error) {
	a, ok := s.assocs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownAssoc, name)
	}
	return a, nil
}

// MustAssociation is Association for known-good names; it panics on error.
func (s *Schema) MustAssociation(name string) *Association {
	a, err := s.Association(name)
	if err != nil {
		panic(err)
	}
	return a
}

// ClassNames returns the qualified names of all classes, sorted.
func (s *Schema) ClassNames() []string {
	names := make([]string, 0, len(s.classes))
	for n := range s.classes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// AddClass defines a new top-level class.
func (s *Schema) AddClass(name string) (*Class, error) {
	if s.frozen {
		return nil, ErrFrozen
	}
	if err := ident.CheckName(name); err != nil {
		return nil, err
	}
	if _, dup := s.classes[name]; dup {
		return nil, fmt.Errorf("%w: class %q", ErrDuplicate, name)
	}
	c := &Class{name: name, qualified: name, schema: s, childByName: make(map[string]*Class)}
	s.classes[name] = c
	s.tops = append(s.tops, c)
	return c, nil
}

// AddAssociation defines a new association.
func (s *Schema) AddAssociation(name string) (*Association, error) {
	if s.frozen {
		return nil, ErrFrozen
	}
	if err := ident.CheckName(name); err != nil {
		return nil, err
	}
	if _, dup := s.assocs[name]; dup {
		return nil, fmt.Errorf("%w: association %q", ErrDuplicate, name)
	}
	a := &Association{name: name, schema: s, childByName: make(map[string]*Class)}
	s.assocs[name] = a
	s.assocList = append(s.assocList, a)
	return a, nil
}

// registerClass records a dependent class under its qualified name.
func (s *Schema) registerClass(c *Class) error {
	q := c.QualifiedName()
	if _, dup := s.classes[q]; dup {
		return fmt.Errorf("%w: class %q", ErrDuplicate, q)
	}
	s.classes[q] = c
	return nil
}

// Freeze validates the schema and makes it immutable. After Freeze the
// schema may be shared freely between goroutines.
func (s *Schema) Freeze() error {
	if s.frozen {
		return nil
	}
	if err := s.validate(); err != nil {
		return err
	}
	s.frozen = true
	return nil
}

// Evolve returns a mutable deep copy of a frozen schema with the version
// number incremented. The paper requires schema versions because "when the
// schema is modified, the interpretation of versions that were created
// before this modification becomes a problem".
func (s *Schema) Evolve() (*Schema, error) {
	if !s.frozen {
		return nil, ErrNotFrozen
	}
	n := s.clone()
	n.version = s.version + 1
	n.frozen = false
	return n, nil
}

// clone deep-copies the schema graph.
func (s *Schema) clone() *Schema {
	n := New(s.name)
	n.version = s.version

	// First pass: copy the class containment trees.
	classMap := make(map[*Class]*Class, len(s.classes))
	var copyClass func(c *Class, parent *Class, owner *Association) *Class
	copyClass = func(c *Class, parent *Class, owner *Association) *Class {
		d := &Class{
			name:        c.name,
			qualified:   c.qualified,
			schema:      n,
			parent:      parent,
			owner:       owner,
			card:        c.card,
			valueKind:   c.valueKind,
			covering:    c.covering,
			procs:       append([]string(nil), c.procs...),
			childByName: make(map[string]*Class),
		}
		classMap[c] = d
		for _, ch := range c.children {
			cc := copyClass(ch, d, nil)
			d.children = append(d.children, cc)
			d.childByName[cc.name] = cc
		}
		return d
	}
	for _, top := range s.tops {
		d := copyClass(top, nil, nil)
		n.tops = append(n.tops, d)
	}

	// Second pass: associations (roles reference classes).
	assocMap := make(map[*Association]*Association, len(s.assocs))
	for _, a := range s.assocList {
		b := &Association{
			name:        a.name,
			schema:      n,
			acyclic:     a.acyclic,
			covering:    a.covering,
			procs:       append([]string(nil), a.procs...),
			childByName: make(map[string]*Class),
		}
		for _, r := range a.roles {
			b.roles = append(b.roles, &Role{
				Name:  r.Name,
				Card:  r.Card,
				class: classMap[r.class],
				assoc: b,
			})
		}
		for _, ch := range a.children {
			cc := copyClass(ch, nil, b)
			b.children = append(b.children, cc)
			b.childByName[cc.name] = cc
		}
		assocMap[a] = b
		n.assocs[a.name] = b
		n.assocList = append(n.assocList, b)
	}

	// Third pass: generalization links and the class registry.
	for old, c := range classMap {
		if old.super != nil {
			c.super = classMap[old.super]
		}
		for _, sp := range old.specs {
			c.specs = append(c.specs, classMap[sp])
		}
		n.classes[c.QualifiedName()] = c
	}
	for old, a := range assocMap {
		if old.super != nil {
			a.super = assocMap[old.super]
		}
		for _, sp := range old.specs {
			a.specs = append(a.specs, assocMap[sp])
		}
	}
	return n
}
