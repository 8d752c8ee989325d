// Package version implements SEED's version concept (paper, section
// "Versions"):
//
//   - Versions are created explicitly by taking a snapshot of the database;
//     there is always a current (mutable) state on top.
//   - Versions are identified by a decimal classification whose tree
//     reflects the version history: successive snapshots on a line of
//     development are 1.0, 2.0, 3.0, …; selecting a historical version and
//     saving on top of it branches an alternative (1.0 -> 1.0.1, 1.0.2, …).
//   - Creating a version stores only the items changed since the previous
//     version on the same line (delta storage); deletions are recorded
//     because the engine marks items deleted instead of removing them.
//   - The view to a version with number n consists of the item states with
//     the greatest version number less than or equal to n along the history
//     path, excluding items marked deleted.
//   - Versions cannot be modified, except for deletion (leaves only).
//   - Schema modifications create schema versions; every database version
//     records the schema version it must be interpreted under.
package version

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/ident"
	"repro/internal/item"
)

// Version manager errors.
var (
	ErrUnknownVersion = errors.New("version: unknown version")
	ErrNotLeaf        = errors.New("version: only leaf versions can be deleted")
	ErrIsBase         = errors.New("version: version is the basis of current work")
	ErrDuplicate      = errors.New("version: version number already exists")
)

// Frozen is one item state captured by a version: either an object or a
// relationship (exactly one of Obj/Rel is meaningful, selected by Kind).
// Deletion marks travel inside the item states.
type Frozen struct {
	Kind item.Kind
	Obj  item.Object
	Rel  item.Relationship
}

// ID returns the frozen item's ID.
func (f Frozen) ID() item.ID {
	if f.Kind == item.KindObject {
		return f.Obj.ID
	}
	return f.Rel.ID
}

// Deleted reports whether the frozen state is a deletion record.
func (f Frozen) Deleted() bool {
	if f.Kind == item.KindObject {
		return f.Obj.Deleted
	}
	return f.Rel.Deleted
}

// Node is one saved version in the classification tree.
type Node struct {
	Num       ident.VersionNumber
	Note      string
	CreatedAt time.Time
	SchemaVer int

	parent   *Node
	children []*Node
	branches int // how many alternatives have been branched off this node

	delta map[item.ID]Frozen
}

// Parent returns the predecessor version (nil for the first).
func (n *Node) Parent() *Node { return n.parent }

// DeltaSize returns the number of item states this version stores.
func (n *Node) DeltaSize() int { return len(n.delta) }

// DeltaIDs returns the IDs frozen in this version, ascending.
func (n *Node) DeltaIDs() []item.ID {
	out := make([]item.ID, 0, len(n.delta))
	for id := range n.delta {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Path returns the history path from the first version to this one.
func (n *Node) Path() []*Node {
	var out []*Node
	for x := n; x != nil; x = x.parent {
		out = append(out, x)
	}
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// Manager owns the version tree and the pointer to the version the current
// work is based on.
type Manager struct {
	nodes map[string]*Node // by number string
	base  *Node            // nil before the first version
}

// NewManager creates an empty version tree.
func NewManager() *Manager {
	return &Manager{nodes: make(map[string]*Node)}
}

// Base returns the version the current state is based on (nil before the
// first snapshot).
func (m *Manager) Base() *Node { return m.base }

// Lookup finds a version by number.
func (m *Manager) Lookup(num ident.VersionNumber) (*Node, error) {
	n, ok := m.nodes[num.String()]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownVersion, num)
	}
	return n, nil
}

// List returns all versions sorted by number.
func (m *Manager) List() []*Node {
	out := make([]*Node, 0, len(m.nodes))
	for _, n := range m.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Num.Less(out[j].Num) })
	return out
}

// Count returns the number of saved versions.
func (m *Manager) Count() int { return len(m.nodes) }

// NextNumber computes the number the next saved version will get: the
// successor on the current line, or the first branch number when the base
// already has a successor on its line (an alternative).
func (m *Manager) NextNumber() ident.VersionNumber {
	if m.base == nil {
		return ident.VersionNumber{1, 0}
	}
	if m.lineSuccessorExists(m.base) {
		return m.base.Num.Branch(m.base.branches + 1)
	}
	return m.base.Num.NextOnLine()
}

// lineSuccessorExists reports whether base already has a child that
// continues its own line (as opposed to branched alternatives).
func (m *Manager) lineSuccessorExists(base *Node) bool {
	next := base.Num.NextOnLine()
	for _, c := range base.children {
		if c.Num.Equal(next) {
			return true
		}
	}
	return false
}

// Freeze creates a new version from the given changed item states, as a
// child of the current base, and makes it the new base. The note is free
// documentation text.
func (m *Manager) Freeze(delta []Frozen, note string, schemaVer int, at time.Time) (*Node, error) {
	num := m.NextNumber()
	if _, dup := m.nodes[num.String()]; dup {
		return nil, fmt.Errorf("%w: %s", ErrDuplicate, num)
	}
	n := &Node{
		Num:       num,
		Note:      note,
		CreatedAt: at,
		SchemaVer: schemaVer,
		parent:    m.base,
		delta:     make(map[item.ID]Frozen, len(delta)),
	}
	for _, f := range delta {
		// A deletion record only matters when some earlier version on the
		// path stored the item; an item created and deleted between two
		// snapshots was never visible and needs no tombstone.
		if f.Deleted() && !m.knownOnPath(f.ID()) {
			continue
		}
		n.delta[f.ID()] = f
	}
	if m.base != nil {
		if m.lineSuccessorExists(m.base) {
			m.base.branches++
		}
		m.base.children = append(m.base.children, n)
	}
	m.nodes[num.String()] = n
	m.base = n
	return n, nil
}

// knownOnPath reports whether any version on the current base's history
// path stores a state of the item.
func (m *Manager) knownOnPath(id item.ID) bool {
	for n := m.base; n != nil; n = n.parent {
		if _, ok := n.delta[id]; ok {
			return true
		}
	}
	return false
}

// Select makes a saved version the basis of further work (the caller
// restores the engine state from Materialize). Selecting a historical
// version and then saving creates an alternative.
func (m *Manager) Select(num ident.VersionNumber) (*Node, error) {
	n, err := m.Lookup(num)
	if err != nil {
		return nil, err
	}
	m.base = n
	return n, nil
}

// Delete removes a leaf version that is not the current base and returns
// its node. Versions cannot be modified, except for deletion.
func (m *Manager) Delete(num ident.VersionNumber) (*Node, error) {
	n, err := m.Lookup(num)
	if err != nil {
		return nil, err
	}
	if len(n.children) > 0 {
		return nil, fmt.Errorf("%w: %s has %d successors", ErrNotLeaf, num, len(n.children))
	}
	if n == m.base {
		return nil, fmt.Errorf("%w: %s", ErrIsBase, num)
	}
	if p := n.parent; p != nil {
		p.children = slices.DeleteFunc(p.children, func(c *Node) bool { return c == n })
	}
	delete(m.nodes, num.String())
	return n, nil
}

// Materialize computes the full item state of a version: for every item,
// the state with the greatest version number less than or equal to the
// requested one along the history path, split into objects and
// relationships in ascending ID order. Deletion records are included — the
// engine keeps deletion marks, and a frozen view hides them.
func (m *Manager) Materialize(num ident.VersionNumber) ([]item.Object, []item.Relationship, error) {
	n, err := m.Lookup(num)
	if err != nil {
		return nil, nil, err
	}
	holder := make(map[item.ID]*Node) // the node holding each item's state
	for _, node := range n.Path() {
		for id := range node.delta {
			holder[id] = node // later nodes on the path overwrite earlier states
		}
	}
	ids := make([]item.ID, 0, len(holder))
	for id := range holder {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	objs := make([]item.Object, 0, len(ids))
	var rels []item.Relationship
	for _, id := range ids {
		if f := holder[id].delta[id]; f.Kind == item.KindObject {
			objs = append(objs, f.Obj)
		} else {
			rels = append(rels, f.Rel)
		}
	}
	return objs, rels, nil
}

// VersionsOf lists the versions that store a state of the given item,
// optionally restricted to the subtree of the classification rooted at
// prefix — the paper's history retrieval, e.g. "find all versions of object
// 'AlarmHandler', beginning with version 2.0".
func (m *Manager) VersionsOf(id item.ID, prefix ident.VersionNumber) []*Node {
	var out []*Node
	for _, n := range m.List() {
		if len(prefix) > 0 && !n.Num.HasPrefix(prefix) {
			continue
		}
		if _, ok := n.delta[id]; ok {
			out = append(out, n)
		}
	}
	return out
}
