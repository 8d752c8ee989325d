package schema

import (
	"fmt"

	"repro/internal/ident"
	"repro/internal/value"
)

// Class is a (possibly hierarchically structured) object class. A class is
// either top-level, a dependent class of another class (its sub-objects),
// or an attribute class of an association (such as 'NumberOfWrites' on
// 'Write' in figure 3).
type Class struct {
	name      string
	qualified string // dotted containment path, fixed when the class is built
	schema    *Schema

	parent *Class       // containment parent, nil for top-level and attribute classes
	owner  *Association // owning association for attribute classes, else nil

	children    []*Class
	childByName map[string]*Class
	card        Cardinality // occurrences within parent; only for dependent classes
	valueKind   value.Kind  // != KindNone when instances carry values

	super    *Class   // generalization: the class this one specializes
	specs    []*Class // specializations
	covering bool     // every instance must finally be specialized

	procs []string // names of attached procedures
}

// Name returns the class's component name, e.g. "Body".
func (c *Class) Name() string { return c.name }

// Schema returns the owning schema.
func (c *Class) Schema() *Schema { return c.schema }

// Parent returns the containment parent class, or nil.
func (c *Class) Parent() *Class { return c.parent }

// Owner returns the owning association for attribute classes, or nil.
func (c *Class) Owner() *Association { return c.owner }

// Top reports whether this is a top-level class (independent objects).
func (c *Class) Top() bool { return c.parent == nil && c.owner == nil }

// QualifiedName returns the dotted containment path, e.g. "Data.Text.Body"
// or "Write.NumberOfWrites" for attribute classes. A class's name, parent
// and owner never change after it is built, so the path is stored then.
func (c *Class) QualifiedName() string { return c.qualified }

// Cardinality returns the containment cardinality of a dependent class
// within its parent (how many sub-objects of this class a parent item may
// and eventually must have).
func (c *Class) Cardinality() Cardinality { return c.card }

// ValueKind returns the value sort instances carry, or KindNone.
func (c *Class) ValueKind() value.Kind { return c.valueKind }

// HasValue reports whether instances of this class carry a value.
func (c *Class) HasValue() bool { return c.valueKind != value.KindNone }

// Covering reports whether the generalization rooted at this class is
// covering: every instance classified here must finally be re-classified
// into one of the specializations (completeness information).
func (c *Class) Covering() bool { return c.covering }

// Super returns the class this one specializes, or nil.
func (c *Class) Super() *Class { return c.super }

// Specializations returns the direct specializations of this class.
func (c *Class) Specializations() []*Class {
	out := make([]*Class, len(c.specs))
	copy(out, c.specs)
	return out
}

// Procedures returns the names of attached procedures on this class.
func (c *Class) Procedures() []string {
	out := make([]string, len(c.procs))
	copy(out, c.procs)
	return out
}

// Children returns the dependent classes in definition order.
func (c *Class) Children() []*Class {
	out := make([]*Class, len(c.children))
	copy(out, c.children)
	return out
}

// AddChild defines a dependent class with the given containment cardinality
// and value kind (value.KindNone for structured sub-objects).
func (c *Class) AddChild(name string, card Cardinality, kind value.Kind) (*Class, error) {
	if c.schema.frozen {
		return nil, ErrFrozen
	}
	if err := ident.CheckName(name); err != nil {
		return nil, err
	}
	if err := card.Check(); err != nil {
		return nil, err
	}
	if c.HasValue() {
		return nil, fmt.Errorf("%w: %q under %q", ErrValueClass, name, c.QualifiedName())
	}
	if _, dup := c.childByName[name]; dup {
		return nil, fmt.Errorf("%w: sub-class %q of %q", ErrDuplicate, name, c.QualifiedName())
	}
	child := &Class{
		name:        name,
		qualified:   c.qualified + "." + name,
		schema:      c.schema,
		parent:      c,
		card:        card,
		valueKind:   kind,
		childByName: make(map[string]*Class),
	}
	c.children = append(c.children, child)
	c.childByName[name] = child
	if err := c.schema.registerClass(child); err != nil {
		delete(c.childByName, name)
		c.children = c.children[:len(c.children)-1]
		return nil, err
	}
	return child, nil
}

// Specialize declares c to be a specialization of general: an instance of c
// 'is-a' instance of general. Both classes must live at the top level of
// the containment hierarchy, mirroring the paper's figure 3 where 'Data'
// and 'Action' are generalized to 'Thing'.
func (c *Class) Specialize(general *Class) error {
	if c.schema.frozen {
		return ErrFrozen
	}
	if general == nil || general.schema != c.schema {
		return fmt.Errorf("%w: foreign or nil general class", ErrBadGeneralize)
	}
	if !c.Top() || !general.Top() {
		return fmt.Errorf("%w: generalization requires top-level classes (%q, %q)",
			ErrBadGeneralize, c.QualifiedName(), general.QualifiedName())
	}
	if c.super != nil {
		return fmt.Errorf("%w: %q already specializes %q", ErrBadGeneralize, c.name, c.super.name)
	}
	if c == general || general.IsA(c) {
		return fmt.Errorf("%w: cycle through %q", ErrBadGeneralize, c.name)
	}
	c.super = general
	general.specs = append(general.specs, c)
	return nil
}

// SetCovering marks the generalization rooted at this class as covering.
func (c *Class) SetCovering(covering bool) error {
	if c.schema.frozen {
		return ErrFrozen
	}
	c.covering = covering
	return nil
}

// AttachProcedure attaches a named procedure; the engine executes it when an
// item of this class is updated (paper: "Attached procedures may be attached
// to any SEED schema element").
func (c *Class) AttachProcedure(name string) error {
	if c.schema.frozen {
		return ErrFrozen
	}
	if err := ident.CheckName(name); err != nil {
		return err
	}
	c.procs = append(c.procs, name)
	return nil
}

// IsA reports whether c equals other or specializes it (directly or
// transitively) — the 'is-a' relation of the generalization hierarchy.
func (c *Class) IsA(other *Class) bool {
	for x := c; x != nil; x = x.super {
		if x == other {
			return true
		}
	}
	return false
}

// Root returns the root of c's generalization hierarchy (c itself when it
// specializes nothing).
func (c *Class) Root() *Class {
	x := c
	for x.super != nil {
		x = x.super
	}
	return x
}

// Family returns c and all its transitive specializations.
func (c *Class) Family() []*Class {
	var out []*Class
	var walk func(*Class)
	walk = func(x *Class) {
		out = append(out, x)
		for _, sp := range x.specs {
			walk(sp)
		}
	}
	walk(c)
	return out
}

// GeneralizationChain returns c, c.Super(), ... up to the root.
func (c *Class) GeneralizationChain() []*Class {
	var out []*Class
	for x := c; x != nil; x = x.super {
		out = append(out, x)
	}
	return out
}

// ResolveChild finds the dependent class for a role name, searching c and
// then its generalization ancestors: a 'Data' object may have a 'Revised'
// sub-object when 'Revised' is declared on 'Thing' (figure 3).
func (c *Class) ResolveChild(role string) (*Class, error) {
	for x := c; x != nil; x = x.super {
		if ch, ok := x.childByName[role]; ok {
			return ch, nil
		}
	}
	return nil, fmt.Errorf("%w: no sub-class %q on %q or its generalizations",
		ErrUnknownClass, role, c.QualifiedName())
}

// AllChildren returns the dependent classes of c including those inherited
// from generalization ancestors, nearest definition first. A role defined on
// a specialization shadows a same-named role on the general class.
func (c *Class) AllChildren() []*Class {
	var out []*Class
	seen := make(map[string]bool)
	for x := c; x != nil; x = x.super {
		for _, ch := range x.children {
			if !seen[ch.name] {
				seen[ch.name] = true
				out = append(out, ch)
			}
		}
	}
	return out
}
