package schema

import (
	"fmt"

	"repro/internal/ident"
	"repro/internal/value"
)

// Association is a relationship class. Its roles name and type the
// participants ('Read' relates 'Data' and 'Action' in roles 'from' and
// 'by'); each role carries a participation cardinality. Associations may be
// generalized just like classes (figure 3 generalizes 'Read' and 'Write' to
// 'Access'), may carry the ACYCLIC attribute, and may own attribute classes
// (sub-objects of relationships, such as 'Write.NumberOfWrites').
type Association struct {
	name   string
	schema *Schema

	roles   []*Role
	acyclic bool

	children    []*Class
	childByName map[string]*Class

	super    *Association
	specs    []*Association
	covering bool

	procs []string
}

// Role is one side of an association: a role name, the class of admissible
// participants, and the participation cardinality of instances of that
// class.
type Role struct {
	Name  string
	Card  Cardinality
	class *Class
	assoc *Association
}

// Class returns the class of admissible participants in this role.
func (r *Role) Class() *Class { return r.class }

// Association returns the owning association.
func (r *Role) Association() *Association { return r.assoc }

// Accepts reports whether an object of class c may fill this role: c must
// be the role class or one of its specializations.
func (r *Role) Accepts(c *Class) bool { return c != nil && c.IsA(r.class) }

// Name returns the association name.
func (a *Association) Name() string { return a.name }

// Schema returns the owning schema.
func (a *Association) Schema() *Schema { return a.schema }

// Acyclic reports whether relationships of this association (and its
// specializations) must not form cycles — the attribute that lets
// 'Contained' impose a tree structure on 'Action' instances in figure 2.
func (a *Association) Acyclic() bool { return a.acyclic }

// Covering reports whether every relationship classified in this
// association must finally be specialized (completeness information).
func (a *Association) Covering() bool { return a.covering }

// Super returns the association this one specializes, or nil.
func (a *Association) Super() *Association { return a.super }

// Specializations returns the direct specializations.
func (a *Association) Specializations() []*Association {
	out := make([]*Association, len(a.specs))
	copy(out, a.specs)
	return out
}

// Roles returns the roles in definition order.
func (a *Association) Roles() []*Role {
	out := make([]*Role, len(a.roles))
	copy(out, a.roles)
	return out
}

// Procedures returns the names of attached procedures.
func (a *Association) Procedures() []string {
	out := make([]string, len(a.procs))
	copy(out, a.procs)
	return out
}

// Children returns the attribute classes in definition order.
func (a *Association) Children() []*Class {
	out := make([]*Class, len(a.children))
	copy(out, a.children)
	return out
}

// Role finds a role by name on a or, if absent there, on its generalization
// ancestors (a specialization inherits the role names of its general
// association).
func (a *Association) Role(name string) (*Role, error) {
	for x := a; x != nil; x = x.super {
		for _, r := range x.roles {
			if r.Name == name {
				return r, nil
			}
		}
	}
	return nil, fmt.Errorf("%w: %q on association %q", ErrUnknownRole, name, a.name)
}

// OwnRole finds a role declared directly on a.
func (a *Association) OwnRole(name string) (*Role, bool) {
	for _, r := range a.roles {
		if r.Name == name {
			return r, true
		}
	}
	return nil, false
}

// AddRole declares a role.
func (a *Association) AddRole(name string, class *Class, card Cardinality) (*Role, error) {
	if a.schema.frozen {
		return nil, ErrFrozen
	}
	if err := ident.CheckName(name); err != nil {
		return nil, err
	}
	if err := card.Check(); err != nil {
		return nil, err
	}
	if class == nil || class.schema != a.schema {
		return nil, fmt.Errorf("%w: role %q of %q has foreign or nil class", ErrBadDefinition, name, a.name)
	}
	if _, dup := a.OwnRole(name); dup {
		return nil, fmt.Errorf("%w: role %q of %q", ErrDuplicate, name, a.name)
	}
	r := &Role{Name: name, Card: card, class: class, assoc: a}
	a.roles = append(a.roles, r)
	return r, nil
}

// AddChild defines an attribute class: a dependent class whose instances
// hang off relationships of this association.
func (a *Association) AddChild(name string, card Cardinality, kind value.Kind) (*Class, error) {
	if a.schema.frozen {
		return nil, ErrFrozen
	}
	if err := ident.CheckName(name); err != nil {
		return nil, err
	}
	if err := card.Check(); err != nil {
		return nil, err
	}
	if _, dup := a.childByName[name]; dup {
		return nil, fmt.Errorf("%w: attribute %q of %q", ErrDuplicate, name, a.name)
	}
	child := &Class{
		name:        name,
		qualified:   a.name + "." + name,
		schema:      a.schema,
		owner:       a,
		card:        card,
		valueKind:   kind,
		childByName: make(map[string]*Class),
	}
	a.children = append(a.children, child)
	a.childByName[name] = child
	if err := a.schema.registerClass(child); err != nil {
		delete(a.childByName, name)
		a.children = a.children[:len(a.children)-1]
		return nil, err
	}
	return child, nil
}

// SetAcyclic sets the ACYCLIC attribute.
func (a *Association) SetAcyclic(acyclic bool) error {
	if a.schema.frozen {
		return ErrFrozen
	}
	a.acyclic = acyclic
	return nil
}

// SetCovering marks the generalization rooted at this association covering.
func (a *Association) SetCovering(covering bool) error {
	if a.schema.frozen {
		return ErrFrozen
	}
	a.covering = covering
	return nil
}

// AttachProcedure attaches a named procedure executed on updates of
// relationships of this association.
func (a *Association) AttachProcedure(name string) error {
	if a.schema.frozen {
		return ErrFrozen
	}
	if err := ident.CheckName(name); err != nil {
		return err
	}
	a.procs = append(a.procs, name)
	return nil
}

// Specialize declares a to be a specialization of general. Role names of the
// specialization must exist on the general association with a conformant
// (equal or specialized) role class; cardinalities may differ to express
// additional semantics (paper: 'Access by' is 1..* while 'Read by' is 0..*).
func (a *Association) Specialize(general *Association) error {
	if a.schema.frozen {
		return ErrFrozen
	}
	if general == nil || general.schema != a.schema {
		return fmt.Errorf("%w: foreign or nil general association", ErrBadGeneralize)
	}
	if a.super != nil {
		return fmt.Errorf("%w: %q already specializes %q", ErrBadGeneralize, a.name, a.super.name)
	}
	if a == general || general.IsA(a) {
		return fmt.Errorf("%w: cycle through %q", ErrBadGeneralize, a.name)
	}
	for _, r := range a.roles {
		gr, err := general.Role(r.Name)
		if err != nil {
			return fmt.Errorf("%w: role %q of %q missing on general %q",
				ErrBadGeneralize, r.Name, a.name, general.name)
		}
		if !r.class.IsA(gr.class) {
			return fmt.Errorf("%w: role %q of %q targets %q, not conformant with %q of general %q",
				ErrBadGeneralize, r.Name, a.name, r.class.QualifiedName(),
				gr.class.QualifiedName(), general.name)
		}
	}
	a.super = general
	general.specs = append(general.specs, a)
	return nil
}

// IsA reports whether a equals other or specializes it transitively.
func (a *Association) IsA(other *Association) bool {
	for x := a; x != nil; x = x.super {
		if x == other {
			return true
		}
	}
	return false
}

// Root returns the root of a's generalization hierarchy.
func (a *Association) Root() *Association {
	x := a
	for x.super != nil {
		x = x.super
	}
	return x
}

// Family returns a and all its transitive specializations — the set whose
// relationships jointly satisfy a generalized cardinality (a 'Read' or a
// 'Write' both count as an 'Access').
func (a *Association) Family() []*Association {
	var out []*Association
	var walk func(*Association)
	walk = func(x *Association) {
		out = append(out, x)
		for _, sp := range x.specs {
			walk(sp)
		}
	}
	walk(a)
	return out
}

// GeneralizationChain returns a, a.Super(), ... up to the root.
func (a *Association) GeneralizationChain() []*Association {
	var out []*Association
	for x := a; x != nil; x = x.super {
		out = append(out, x)
	}
	return out
}

// ResolveChild finds the attribute class for a role name, searching a and
// its generalization ancestors.
func (a *Association) ResolveChild(role string) (*Class, error) {
	for x := a; x != nil; x = x.super {
		if ch, ok := x.childByName[role]; ok {
			return ch, nil
		}
	}
	return nil, fmt.Errorf("%w: no attribute %q on %q or its generalizations",
		ErrUnknownClass, role, a.name)
}
