// Package pattern implements SEED's pattern concept and, on top of it,
// variants (paper, section "Patterns and Variants").
//
// Any data item can be marked as a pattern. Patterns are invisible to
// retrieval and are not checked for consistency unless they are inherited
// by a normal data item through the special inherits-relationship. All
// retrieval operations view patterns as if they were inserted in the
// context of the inheritors: this package builds that view by splicing
// virtual copies of the pattern's sub-objects and relationships into each
// inheritor's context. Pattern information cannot be updated in the context
// of the inheritors — virtual items are read-only projections — but only in
// the pattern itself, and any update of a pattern automatically propagates
// to all inheritors, because the spliced view is computed from the pattern's
// current state.
package pattern

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/consistency"
	"repro/internal/item"
	"repro/internal/schema"
)

// VirtualBase is the first ID used for virtual (spliced) items. Real item
// IDs are allocated from 1 upward and never reach this range.
const VirtualBase item.ID = 1 << 62

// ErrInheritedData reports an update addressed to inherited (virtual)
// information, which is only updatable in the pattern itself.
var ErrInheritedData = errors.New("pattern: inherited information is updatable only in the pattern itself")

// IsVirtualID reports whether an item ID denotes a spliced projection.
func IsVirtualID(id item.ID) bool { return id >= VirtualBase }

// InheritorsOf lists the normal items inheriting the given pattern, in
// ascending ID order.
func InheritorsOf(v item.View, patternID item.ID) []item.ID {
	var out []item.ID
	for _, rid := range v.RelationshipsOf(patternID) {
		r, ok := v.Relationship(rid)
		if ok && r.Inherits && r.End(item.InheritsPatternRole) == patternID {
			out = append(out, r.End(item.InheritsInheritorRole))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PatternsOf lists the patterns an item inherits, in ascending ID order.
func PatternsOf(v item.View, inheritorID item.ID) []item.ID {
	var out []item.ID
	for _, rid := range v.RelationshipsOf(inheritorID) {
		r, ok := v.Relationship(rid)
		if ok && r.Inherits && r.End(item.InheritsInheritorRole) == inheritorID {
			out = append(out, r.End(item.InheritsPatternRole))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Origin records where a virtual item comes from.
type Origin struct {
	Source    item.ID // the pattern-side item this projects
	Pattern   item.ID // the inherited pattern root
	Inheritor item.ID // the context the projection appears in
}

// Spliced is the user-facing view: pattern items and inherits-relationships
// are hidden; for every inherits link the pattern's sub-objects and
// relationships appear as virtual items in the inheritor's context.
//
// A Spliced is immutable after NewSpliced and therefore safe for
// unsynchronized concurrent use — the seed database shares one per
// mutation generation between all snapshot readers. That guarantee only
// holds as far as the base view's does: over a frozen base (or any other
// immutable view) the whole splice is a consistent snapshot; over a live
// view its reads track the underlying state.
type Spliced struct {
	base item.View

	vObjects  map[item.ID]item.Object
	vRels     map[item.ID]item.Relationship
	vChildren map[item.ID]map[string][]item.ID
	vRelsOf   map[item.ID][]item.ID
	vByClass  map[string][]item.ID // virtual objects per exact class, ascending
	origins   map[item.ID]Origin
	nextVID   item.ID
}

// NewSpliced builds the spliced view over a base (raw) view. The splice is
// computed eagerly; build a fresh view after mutations. When the base
// implements item.InheritsLister (the engine's live and frozen views both
// do), the construction cost is proportional to the inherited information,
// not to the whole relationship population.
func NewSpliced(base item.View) *Spliced {
	s := &Spliced{
		base:      base,
		vObjects:  make(map[item.ID]item.Object),
		vRels:     make(map[item.ID]item.Relationship),
		vChildren: make(map[item.ID]map[string][]item.ID),
		vRelsOf:   make(map[item.ID][]item.ID),
		vByClass:  make(map[string][]item.ID),
		origins:   make(map[item.ID]Origin),
		nextVID:   VirtualBase,
	}
	// Deterministic order: inherits relationships in ascending ID order.
	var inheritsIDs []item.ID
	if il, ok := base.(item.InheritsLister); ok {
		inheritsIDs = il.InheritsRelationships()
	} else {
		inheritsIDs = base.Relationships()
	}
	for _, rid := range inheritsIDs {
		r, ok := base.Relationship(rid)
		if !ok || !r.Inherits {
			continue
		}
		pat := r.End(item.InheritsPatternRole)
		inh := r.End(item.InheritsInheritorRole)
		if pat == item.NoID || inh == item.NoID {
			continue
		}
		s.splice(pat, inh)
	}
	// Virtual IDs are allocated ascending, so appending in ID order keeps
	// every class list sorted.
	vids := make([]item.ID, 0, len(s.vObjects))
	for id := range s.vObjects {
		vids = append(vids, id)
	}
	sort.Slice(vids, func(i, j int) bool { return vids[i] < vids[j] })
	for _, id := range vids {
		name := s.vObjects[id].Class.QualifiedName()
		s.vByClass[name] = append(s.vByClass[name], id)
	}
	return s
}

// splice projects one pattern into one inheritor context.
func (s *Spliced) splice(pat, inh item.ID) {
	// Sub-objects: the pattern's subtree re-rooted at the inheritor.
	s.spliceChildren(pat, inh, pat, inh)
	// Relationships of the pattern root: re-point the pattern end at the
	// inheritor. Relationships whose other ends are still patterns stay
	// invisible (they surface in contexts where those ends are inherited).
	for _, rid := range s.base.RelationshipsOf(pat) {
		r, ok := s.base.Relationship(rid)
		if !ok || r.Inherits {
			continue
		}
		clone := r.Clone()
		hidden := false
		for i, e := range clone.Ends {
			if e.Object == pat {
				clone.Ends[i].Object = inh
				continue
			}
			if o, ok := s.base.Object(e.Object); ok && o.Pattern {
				hidden = true
			}
		}
		if hidden {
			continue
		}
		vid := s.alloc()
		clone.ID = vid
		clone.Pattern = false
		s.vRels[vid] = clone
		s.origins[vid] = Origin{Source: rid, Pattern: pat, Inheritor: inh}
		for _, e := range clone.Ends {
			s.vRelsOf[e.Object] = append(s.vRelsOf[e.Object], vid)
		}
		// Attribute sub-objects of the pattern relationship.
		s.spliceChildren(rid, vid, pat, inh)
	}
}

// spliceChildren copies the sub-objects of src (a pattern-side item) under
// dst (the corresponding item in the inheritor context).
func (s *Spliced) spliceChildren(src, dst, pat, inh item.ID) {
	for _, role := range s.rolesOf(src) {
		for _, cid := range s.base.Children(src, role) {
			c, ok := s.base.Object(cid)
			if !ok {
				continue
			}
			vid := s.alloc()
			vc := c
			vc.ID = vid
			vc.Parent = dst
			vc.Pattern = false
			s.vObjects[vid] = vc
			s.origins[vid] = Origin{Source: cid, Pattern: pat, Inheritor: inh}
			byRole := s.vChildren[dst]
			if byRole == nil {
				byRole = make(map[string][]item.ID)
				s.vChildren[dst] = byRole
			}
			byRole[role] = append(byRole[role], vid)
			s.spliceChildren(cid, vid, pat, inh)
		}
	}
}

func (s *Spliced) rolesOf(parent item.ID) []string {
	seen := make(map[string]bool)
	var roles []string
	for _, cid := range s.base.Children(parent, "") {
		if c, ok := s.base.Object(cid); ok && !seen[c.Role] {
			seen[c.Role] = true
			roles = append(roles, c.Role)
		}
	}
	sort.Strings(roles)
	return roles
}

func (s *Spliced) alloc() item.ID {
	id := s.nextVID
	s.nextVID++
	return id
}

// Origin reports the provenance of a virtual item.
func (s *Spliced) Origin(id item.ID) (Origin, bool) {
	o, ok := s.origins[id]
	return o, ok
}

// Schema returns the base schema.
func (s *Spliced) Schema() *schema.Schema { return s.base.Schema() }

// Object implements item.View: virtual objects resolve to their projection,
// pattern objects are hidden.
func (s *Spliced) Object(id item.ID) (item.Object, bool) {
	if IsVirtualID(id) {
		o, ok := s.vObjects[id]
		return o, ok
	}
	o, ok := s.base.Object(id)
	if !ok || o.Pattern {
		return item.Object{}, false
	}
	return o, true
}

// Relationship implements item.View: pattern relationships and
// inherits-relationships are hidden, virtual relationships resolve. The
// returned value shares its Ends slice per the item.View mutability
// contract — callers that mutate ends clone explicitly.
func (s *Spliced) Relationship(id item.ID) (item.Relationship, bool) {
	if IsVirtualID(id) {
		r, ok := s.vRels[id]
		if !ok {
			return item.Relationship{}, false
		}
		return r, true
	}
	r, ok := s.base.Relationship(id)
	if !ok || r.Pattern || r.Inherits {
		return item.Relationship{}, false
	}
	return r, true
}

// ObjectByName hides patterns from name retrieval.
func (s *Spliced) ObjectByName(name string) (item.ID, bool) {
	id, ok := s.base.ObjectByName(name)
	if !ok {
		return item.NoID, false
	}
	if o, exists := s.base.Object(id); !exists || o.Pattern {
		return item.NoID, false
	}
	return id, true
}

// Children merges real and spliced sub-objects; real ones come first. A
// parent without spliced sub-objects in the role gets the base's shared
// slice as is, per the item.View immutability contract.
func (s *Spliced) Children(parent item.ID, role string) []item.ID {
	var base []item.ID
	if !IsVirtualID(parent) {
		base = s.base.Children(parent, role)
	}
	byRole, ok := s.vChildren[parent]
	if !ok {
		return base
	}
	if role != "" {
		virt := byRole[role]
		switch {
		case len(virt) == 0:
			return base
		case len(base) == 0:
			return virt
		}
		return append(append(make([]item.ID, 0, len(base)+len(virt)), base...), virt...)
	}
	roles := make([]string, 0, len(byRole))
	for r := range byRole {
		roles = append(roles, r)
	}
	sort.Strings(roles)
	out := append([]item.ID(nil), base...)
	for _, r := range roles {
		out = append(out, byRole[r]...)
	}
	return out
}

// RelationshipsOf merges real (non-pattern) and spliced relationships.
func (s *Spliced) RelationshipsOf(obj item.ID) []item.ID {
	var out []item.ID
	if !IsVirtualID(obj) {
		for _, rid := range s.base.RelationshipsOf(obj) {
			if r, ok := s.base.Relationship(rid); ok && !r.Pattern && !r.Inherits {
				out = append(out, rid)
			}
		}
	}
	out = append(out, s.vRelsOf[obj]...)
	return out
}

// Objects lists real non-pattern objects followed by virtual objects.
func (s *Spliced) Objects() []item.ID {
	var out []item.ID
	for _, id := range s.base.Objects() {
		if o, ok := s.base.Object(id); ok && !o.Pattern {
			out = append(out, id)
		}
	}
	vids := make([]item.ID, 0, len(s.vObjects))
	for id := range s.vObjects {
		vids = append(vids, id)
	}
	sort.Slice(vids, func(i, j int) bool { return vids[i] < vids[j] })
	return append(out, vids...)
}

// ObjectsOfClass implements item.IndexedView over an indexed base: the
// base's class index with pattern objects filtered out, followed by the
// virtual objects of the class (virtual IDs are above every real ID, so the
// result stays ascending). Over a base without an index it reports ok=false
// and queries fall back to the scan path.
func (s *Spliced) ObjectsOfClass(qualified string) ([]item.ID, bool) {
	iv, ok := s.base.(item.IndexedView)
	if !ok {
		return nil, false
	}
	baseIDs, ok := iv.ObjectsOfClass(qualified)
	if !ok {
		return nil, false
	}
	virt := s.vByClass[qualified]
	out := make([]item.ID, 0, len(baseIDs)+len(virt))
	for _, id := range baseIDs {
		if o, ok := s.base.Object(id); ok && !o.Pattern {
			out = append(out, id)
		}
	}
	return append(out, virt...), true
}

// EstNamePrefix implements item.NamePrefixView by delegating to the base
// view, under the same no-virtual-items rule as AttrIndex: virtual objects
// and their names are invisible to the base index, so with any present the
// range would under-report and the planner must use another path.
func (s *Spliced) EstNamePrefix(prefix string) (int, bool) {
	if len(s.vObjects) > 0 || len(s.vRels) > 0 {
		return 0, false
	}
	nv, ok := s.base.(item.NamePrefixView)
	if !ok {
		return 0, false
	}
	return nv.EstNamePrefix(prefix)
}

// ObjectsWithNamePrefix implements item.NamePrefixView like EstNamePrefix.
// Pattern roots remaining in the base range are harmless: the executor's
// Object re-check hides them.
func (s *Spliced) ObjectsWithNamePrefix(prefix string) ([]item.ID, bool) {
	if len(s.vObjects) > 0 || len(s.vRels) > 0 {
		return nil, false
	}
	nv, ok := s.base.(item.NamePrefixView)
	if !ok {
		return nil, false
	}
	return nv.ObjectsWithNamePrefix(prefix)
}

// CountOfClass implements item.ClassCounter: the base extent size plus the
// virtual objects of the class, without the per-object filter walk that
// materializing through ObjectsOfClass pays. The base extent is counted by
// the base's own ClassCounter when it has one, so a frozen base need not
// flatten its class list either. Pattern roots the list would hide stay
// counted — the planner wants a cheap upper bound, and whichever access
// path executes re-checks every candidate against the view.
func (s *Spliced) CountOfClass(qualified string) (int, bool) {
	iv, ok := s.base.(item.IndexedView)
	if !ok {
		return 0, false
	}
	var n int
	if cc, isCounter := iv.(item.ClassCounter); isCounter {
		n, ok = cc.CountOfClass(qualified)
	} else {
		var baseIDs []item.ID
		baseIDs, ok = iv.ObjectsOfClass(qualified)
		n = len(baseIDs)
	}
	if !ok {
		return 0, false
	}
	return n + len(s.vByClass[qualified]), true
}

// AttrIndex implements item.AttrIndexedView by delegating to the base view's
// attribute index — but only while the splice holds no virtual items.
// Virtual roots and virtual sub-object values are invisible to the base
// index, so with any virtuals present the index would under-report and the
// planner must fall back to another path. Pattern roots remaining in the
// base postings are harmless: the executor's Object re-check hides them.
func (s *Spliced) AttrIndex(key item.AttrKey) (*item.AttrIdx, bool) {
	if len(s.vObjects) > 0 || len(s.vRels) > 0 {
		return nil, false
	}
	av, ok := s.base.(item.AttrIndexedView)
	if !ok {
		return nil, false
	}
	return av.AttrIndex(key)
}

// Relationships lists real non-pattern, non-inherits relationships followed
// by virtual relationships.
func (s *Spliced) Relationships() []item.ID {
	var out []item.ID
	for _, id := range s.base.Relationships() {
		if r, ok := s.base.Relationship(id); ok && !r.Pattern && !r.Inherits {
			out = append(out, id)
		}
	}
	vids := make([]item.ID, 0, len(s.vRels))
	for id := range s.vRels {
		vids = append(vids, id)
	}
	sort.Slice(vids, func(i, j int) bool { return vids[i] < vids[j] })
	return append(out, vids...)
}

// ValidateInheritor checks the consistency of one inheritor's spliced
// context: the inheritor itself (its cardinalities now include inherited
// sub-objects) and every virtual item projected into it. This implements
// "patterns ... are not checked for consistency unless they are inherited
// by a normal data item".
func (s *Spliced) ValidateInheritor(inh item.ID) error {
	if _, ok := s.Object(inh); ok {
		if err := consistency.CheckObject(s, inh); err != nil {
			return fmt.Errorf("pattern: inheritor %d: %w", inh, err)
		}
	}
	// Deterministic order over virtual items of this inheritor.
	vids := make([]item.ID, 0)
	for id, org := range s.origins {
		if org.Inheritor == inh {
			vids = append(vids, id)
		}
	}
	sort.Slice(vids, func(i, j int) bool { return vids[i] < vids[j] })
	for _, vid := range vids {
		if _, ok := s.vObjects[vid]; ok {
			if err := consistency.CheckObject(s, vid); err != nil {
				return fmt.Errorf("pattern: inherited object %d (from %d): %w",
					vid, s.origins[vid].Source, err)
			}
			continue
		}
		if err := consistency.CheckRelationship(s, vid); err != nil {
			return fmt.Errorf("pattern: inherited relationship %d (from %d): %w",
				vid, s.origins[vid].Source, err)
		}
	}
	return nil
}
