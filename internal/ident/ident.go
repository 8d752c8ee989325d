// Package ident provides the identifier kernel of SEED: component names,
// qualified hierarchical object names, and decimal-classification version
// numbers.
//
// SEED composes the name of a dependent object from the name of its parent
// and its role in the context of the parent (paper, explanation of figure 1):
// the object 'Alarms.Text.Body.Keywords[1]' is the second 'Keywords'
// sub-object of 'Alarms.Text.Body'. Versions are identified by a decimal
// classification such as "1.0" or "2.0.1" whose tree reflects the version
// history (paper, section "Versions").
package ident

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Errors returned by parsing functions in this package.
var (
	ErrEmptyName   = errors.New("ident: empty name")
	ErrBadName     = errors.New("ident: malformed name")
	ErrBadPath     = errors.New("ident: malformed qualified name")
	ErrBadVersion  = errors.New("ident: malformed version number")
	ErrEmptyPath   = errors.New("ident: empty qualified name")
	ErrNegativeIdx = errors.New("ident: negative component index")
)

// NoIndex marks a path component that carries no positional index.
const NoIndex = -1

// ValidName reports whether s is a legal SEED component name: a letter
// followed by letters, digits, or underscores. Role names and class names
// obey the same rule.
func ValidName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z':
		case r == '_' && i > 0:
		case r >= '0' && r <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}

// CheckName returns a descriptive error if s is not a valid component name.
func CheckName(s string) error {
	if s == "" {
		return ErrEmptyName
	}
	if !ValidName(s) {
		return fmt.Errorf("%w: %q", ErrBadName, s)
	}
	return nil
}

// Component is one step of a qualified name: a role name plus an optional
// positional index for roles whose maximum cardinality exceeds one
// (e.g. Keywords[1]).
type Component struct {
	Name  string
	Index int // NoIndex when the component carries no index
}

// HasIndex reports whether the component carries a positional index.
func (c Component) HasIndex() bool { return c.Index != NoIndex }

// String renders the component in SEED surface syntax, e.g. "Keywords[1]".
func (c Component) String() string {
	if c.HasIndex() {
		var buf [32]byte
		return string(c.Append(buf[:0]))
	}
	return c.Name
}

// Append appends the component's surface syntax to b, as String renders it.
func (c Component) Append(b []byte) []byte {
	b = append(b, c.Name...)
	if c.HasIndex() {
		b = append(b, '[')
		b = strconv.AppendInt(b, int64(c.Index), 10)
		b = append(b, ']')
	}
	return b
}

// Path is a qualified hierarchical name. The first component names an
// independent object; every further component is the role of a dependent
// object within its parent.
type Path []Component

// ParsePath parses a qualified name such as "Alarms.Text.Body.Keywords[1]".
func ParsePath(s string) (Path, error) {
	if s == "" {
		return nil, ErrEmptyPath
	}
	parts := strings.Split(s, ".")
	p := make(Path, 0, len(parts))
	for _, part := range parts {
		c, err := parseComponent(part)
		if err != nil {
			return nil, fmt.Errorf("%w: %q in %q", ErrBadPath, part, s)
		}
		p = append(p, c)
	}
	return p, nil
}

// MustParsePath is ParsePath for known-good literals; it panics on error.
func MustParsePath(s string) Path {
	p, err := ParsePath(s)
	if err != nil {
		panic(err)
	}
	return p
}

func parseComponent(s string) (Component, error) {
	idx := NoIndex
	if i := strings.IndexByte(s, '['); i >= 0 {
		if !strings.HasSuffix(s, "]") {
			return Component{}, ErrBadPath
		}
		n, err := strconv.Atoi(s[i+1 : len(s)-1])
		if err != nil || n < 0 {
			return Component{}, ErrBadPath
		}
		idx = n
		s = s[:i]
	}
	if !ValidName(s) {
		return Component{}, ErrBadName
	}
	return Component{Name: s, Index: idx}, nil
}

// String renders the path in SEED surface syntax with dot separators.
func (p Path) String() string {
	var b []byte
	for i, c := range p {
		if i > 0 {
			b = append(b, '.')
		}
		b = c.Append(b)
	}
	return string(b)
}

// IsRoot reports whether the path names an independent object.
func (p Path) IsRoot() bool { return len(p) == 1 }

// Parent returns the path without its last component, or nil for a root path.
func (p Path) Parent() Path {
	if len(p) <= 1 {
		return nil
	}
	return p[:len(p)-1]
}

// Base returns the last component of the path.
func (p Path) Base() Component {
	if len(p) == 0 {
		return Component{}
	}
	return p[len(p)-1]
}

// Child returns a new path extended by the given role and index.
func (p Path) Child(role string, index int) Path {
	q := make(Path, len(p)+1)
	copy(q, p)
	q[len(p)] = Component{Name: role, Index: index}
	return q
}

// Equal reports whether two paths are component-wise identical.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// HasPrefix reports whether q is a prefix of p (q names an ancestor of p or
// p itself).
func (p Path) HasPrefix(q Path) bool {
	if len(q) > len(p) {
		return false
	}
	for i := range q {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the path.
func (p Path) Clone() Path {
	q := make(Path, len(p))
	copy(q, p)
	return q
}
