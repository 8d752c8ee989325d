package core

import (
	"fmt"

	"repro/internal/consistency"
	"repro/internal/ident"
	"repro/internal/item"
	"repro/internal/pattern"
	"repro/internal/schema"
	"repro/internal/value"
)

// This file implements the operational interface of SEED (paper, section
// "Data manipulation in SEED"): procedures for data creation, update,
// re-classification, deletion, and pattern management. Every operation
// applies its change, re-checks all consistency rules that apply to the
// data being updated, and undoes the change if any rule or attached
// procedure vetoes it — so the database is permanently consistent. Each
// public operation runs in the active transaction or, outside one, in a
// one-operation transaction (beginOp and endOp in tx.go).

// CreateObject creates an independent object of a top-level class.
func (en *Engine) CreateObject(className, name string) (item.ID, error) {
	return en.createObject(className, name, false)
}

// CreatePatternObject creates an independent object marked as a pattern:
// invisible to retrieval and exempt from cardinality checking until it is
// inherited by a normal data item.
func (en *Engine) CreatePatternObject(className, name string) (item.ID, error) {
	return en.createObject(className, name, true)
}

func (en *Engine) createObject(className, name string, asPattern bool) (id item.ID, err error) {
	defer en.endOp(en.beginOp(), &id, &err)
	cls, err := en.sch.Class(className)
	if err != nil {
		return item.NoID, err
	}
	if !cls.Top() {
		return item.NoID, fmt.Errorf("%w: class %q is dependent", ErrNotIndependent, className)
	}
	if err := ident.CheckName(name); err != nil {
		return item.NoID, err
	}
	// Claim before the duplicate check: a name held by another open
	// transaction (created or deleted in flight) is a retryable conflict,
	// not a hard duplicate — the outcome depends on how that batch ends.
	if err := en.claimName(name); err != nil {
		return item.NoID, err
	}
	if _, exists := en.st.lookupName(name); exists {
		return item.NoID, fmt.Errorf("%w: %q", ErrDuplicateName, name)
	}
	mark := en.mark()
	o := &item.Object{
		ID:      en.allocID(),
		Class:   cls,
		Name:    name,
		Index:   item.NoIndex,
		Pattern: asPattern,
	}
	en.insertObjectRaw(o)
	if err := en.finishMutation(o.ID, item.KindObject, OpCreate, mark, en.encCreateObject(o)); err != nil {
		return item.NoID, err
	}
	return o.ID, nil
}

// CreateSubObject creates a dependent object under a parent item (object or
// relationship) in the given role. The sub-object's class is resolved from
// the parent's class or association, following generalization ancestors.
// The composed name of the new object is parent-name '.' role (with an
// index when several same-role siblings are allowed).
func (en *Engine) CreateSubObject(parent item.ID, role string) (id item.ID, err error) {
	defer en.endOp(en.beginOp(), &id, &err)
	cls, parentPattern, err := en.resolveSubObjectClass(parent, role)
	if err != nil {
		return item.NoID, err
	}
	if err := en.claimItems(parent); err != nil {
		return item.NoID, err
	}
	mark := en.mark()
	o := &item.Object{
		ID:      en.allocID(),
		Class:   cls,
		Parent:  parent,
		Role:    role,
		Index:   en.assignIndex(parent, role, cls),
		Pattern: parentPattern, // sub-objects of a pattern belong to the pattern
	}
	en.insertObjectRaw(o)
	if err := en.finishMutation(o.ID, item.KindObject, OpCreate, mark, en.encCreateSub(o)); err != nil {
		return item.NoID, err
	}
	return o.ID, nil
}

// CreateValueObject is CreateSubObject followed by SetValue in one
// operation, for leaf sub-objects such as 'Alarms.Text.Selector'.
func (en *Engine) CreateValueObject(parent item.ID, role string, v value.Value) (id item.ID, err error) {
	defer en.endOp(en.beginOp(), &id, &err)
	tx := en.curTx
	mark, staged := en.mark(), len(tx.pending)
	if id, err = en.CreateSubObject(parent, role); err == nil {
		err = en.SetValue(id, v)
	}
	if err != nil {
		// The operation is atomic: a refused value takes the creation, its
		// sibling index and its staged record with it.
		en.rollbackTo(mark)
		tx.pending = tx.pending[:staged]
		return item.NoID, err
	}
	return id, nil
}

func (en *Engine) resolveSubObjectClass(parent item.ID, role string) (*schema.Class, bool, error) {
	if po, err := en.liveObject(parent); err == nil {
		cls, rerr := po.Class.ResolveChild(role)
		if rerr != nil {
			return nil, false, rerr
		}
		return cls, po.Pattern, nil
	} else if k, known := en.st.kindOf(parent); known && k == item.KindObject {
		return nil, false, err // exists but deleted
	}
	pr, err := en.liveRel(parent)
	if err != nil {
		return nil, false, fmt.Errorf("%w: parent %d", ErrUnknownItem, parent)
	}
	if pr.Inherits {
		return nil, false, fmt.Errorf("%w: inherits-relationships cannot own sub-objects", ErrPatternConflict)
	}
	cls, err := pr.Assoc.ResolveChild(role)
	if err != nil {
		return nil, false, err
	}
	return cls, pr.Pattern, nil
}

// assignIndex hands out the next positional index for a (parent, role) pair.
// Sub-classes with maximum cardinality one get no index; their objects are
// addressed by role alone ('Alarms.Text.Selector').
func (en *Engine) assignIndex(parent item.ID, role string, cls *schema.Class) int {
	if cls.Cardinality().Max == 1 {
		return item.NoIndex
	}
	byRole := en.indexCtr[parent]
	if byRole == nil {
		byRole = make(map[string]int)
		en.indexCtr[parent] = byRole
	}
	idx := byRole[role]
	byRole[role] = idx + 1
	en.push(func() { byRole[role] = idx })
	return idx
}

// SetValue sets (or with value.Undefined clears) the value of a value-class
// object.
func (en *Engine) SetValue(id item.ID, v value.Value) (err error) {
	defer en.endOp(en.beginOp(), nil, &err)
	o, err := en.liveObject(id)
	if err != nil {
		return err
	}
	if !o.Class.HasValue() {
		return fmt.Errorf("%w: class %q", ErrNotValueObject, o.Class.QualifiedName())
	}
	if err := en.claimItems(id); err != nil {
		return err
	}
	mark := en.mark()
	en.setValueRaw(id, o.Value, v)
	return en.finishMutation(id, item.KindObject, OpUpdate, mark, en.encSetValue(id, v))
}

// CreateRelationship creates a relationship of the named association with
// the given ends. If any end is a pattern object, the relationship is
// created as a pattern relationship (figure 5's PR1/PR2); otherwise pattern
// ends are a consistency violation.
func (en *Engine) CreateRelationship(assocName string, ends map[string]item.ID) (id item.ID, err error) {
	defer en.endOp(en.beginOp(), &id, &err)
	assoc, err := en.sch.Association(assocName)
	if err != nil {
		return item.NoID, err
	}
	r := &item.Relationship{Assoc: assoc}
	for role, obj := range ends {
		r.Ends = append(r.Ends, item.End{Role: role, Object: obj})
	}
	r.SortEnds()
	r.Pattern = en.endsPattern(r.Ends)
	// Creating a relationship perturbs the relationship lists (and the
	// participation counts) of every end: claim them all.
	endIDs := make([]item.ID, 0, len(r.Ends))
	for _, e := range r.Ends {
		endIDs = append(endIDs, e.Object)
	}
	if err := en.claimItems(endIDs...); err != nil {
		return item.NoID, err
	}
	mark := en.mark()
	r.ID = en.allocID()
	en.insertRelRaw(r)
	if err := en.finishMutation(r.ID, item.KindRelationship, OpCreate, mark, en.encCreateRel(r)); err != nil {
		return item.NoID, err
	}
	return r.ID, nil
}

// endsPattern reports whether a relationship with these ends connects to a
// live pattern: such a relationship is itself a pattern relationship, visible
// in the context of inheritors.
func (en *Engine) endsPattern(ends []item.End) bool {
	for _, e := range ends {
		if o, ok := en.st.object(e.Object); ok && !o.Deleted && o.Pattern {
			return true
		}
	}
	return false
}

// Inherit establishes the special inherits-relationship between a pattern
// and a normal data item. All retrieval operations thereafter view the
// pattern's sub-objects and relationships as if they were inserted in the
// context of the inheritor.
func (en *Engine) Inherit(patternID, inheritorID item.ID) (id item.ID, err error) {
	defer en.endOp(en.beginOp(), &id, &err)
	// Reject duplicates up front for a clear error.
	for _, rid := range en.st.relsOf(inheritorID) {
		r, _ := en.st.rel(rid)
		if r.Inherits && r.End(item.InheritsPatternRole) == patternID {
			return item.NoID, fmt.Errorf("%w: item %d already inherits pattern %d",
				ErrPatternConflict, inheritorID, patternID)
		}
	}
	r := &item.Relationship{
		Inherits: true,
		Ends: []item.End{
			{Role: item.InheritsInheritorRole, Object: inheritorID},
			{Role: item.InheritsPatternRole, Object: patternID},
		},
	}
	r.SortEnds()
	if err := en.claimItems(patternID, inheritorID); err != nil {
		return item.NoID, err
	}
	mark := en.mark()
	r.ID = en.allocID()
	en.insertRelRaw(r)
	if err := en.finishMutation(r.ID, item.KindRelationship, OpCreate, mark, en.encInherit(r)); err != nil {
		return item.NoID, err
	}
	return r.ID, nil
}

// MarkPattern turns an independent object or a relationship into a pattern.
// Sub-objects follow their root. The operation fails if a normal
// relationship still references the object.
func (en *Engine) MarkPattern(id item.ID) error { return en.setPattern(id, true) }

// ClearPattern turns a pattern back into a normal data item. The operation
// fails while inheritors exist.
func (en *Engine) ClearPattern(id item.ID) error { return en.setPattern(id, false) }

func (en *Engine) setPattern(id item.ID, pat bool) (err error) {
	defer en.endOp(en.beginOp(), nil, &err)
	// The pattern flag flips on the item and its whole live subtree.
	if err := en.claimItems(append([]item.ID{id}, en.subtreeObjects(id)...)...); err != nil {
		return err
	}
	mark := en.mark()
	if o, err := en.liveObject(id); err == nil {
		if !o.Independent() {
			return fmt.Errorf("%w: only independent objects can be marked", ErrPatternConflict)
		}
		if o.Pattern == pat {
			return nil
		}
		if !pat && len(pattern.InheritorsOf(en.View(), id)) > 0 {
			return fmt.Errorf("%w: object %d", ErrHasInheritors, id)
		}
		en.setPatternSubtree(id, pat)
		// Re-validate the subtree: a cleared pattern is normal data again and
		// must meet the cardinalities patterns are exempt from, and normal
		// relationships must not reference a pattern.
		if err := en.validateSubtree(id); err != nil {
			en.rollbackTo(mark)
			return err
		}
		for _, rid := range en.subtreeRels(id) {
			if err := en.validateRel(rid); err != nil {
				en.rollbackTo(mark)
				return err
			}
		}
		return en.finishMutation(id, item.KindObject, OpUpdate, mark, en.encSetPattern(id, pat))
	}
	r, err := en.liveRel(id)
	if err != nil {
		return fmt.Errorf("%w: item %d", ErrUnknownItem, id)
	}
	if r.Inherits {
		return fmt.Errorf("%w: inherits-relationships cannot be patterns", ErrPatternConflict)
	}
	if r.Pattern == pat {
		return nil
	}
	en.setPatternSubtree(id, pat) // attribute sub-objects follow the relationship
	if err := en.validateSubtree(id); err != nil {
		en.rollbackTo(mark)
		return err
	}
	return en.finishMutation(id, item.KindRelationship, OpUpdate, mark, en.encSetPattern(id, pat))
}

// validateSubtree re-checks every live sub-object below id.
func (en *Engine) validateSubtree(id item.ID) error {
	for _, ch := range en.subtreeObjects(id) {
		if err := consistency.CheckObject(en.View(), ch); err != nil {
			return err
		}
	}
	return nil
}

// setPatternSubtree flips the pattern flag on an item (object or
// relationship) and its live descendant objects, with undo.
func (en *Engine) setPatternSubtree(root item.ID, pat bool) {
	for _, id := range append([]item.ID{root}, en.subtreeObjects(root)...) {
		var old bool
		if o, ok := en.st.object(id); ok {
			old = o.Pattern
		} else if r, ok := en.st.rel(id); ok {
			old = r.Pattern
		} else {
			continue
		}
		if old == pat {
			continue
		}
		en.st.setPattern(id, pat)
		en.push(func() { en.st.setPattern(id, old) })
		en.markDirty(id)
	}
}

// Delete marks an item and everything that depends on it as deleted: its
// sub-objects recursively, and every relationship referencing a deleted
// object (with that relationship's attribute sub-objects). Items are marked,
// not physically removed, which is what makes delta-based version creation
// cheap. Deleting a pattern that still has inheritors is rejected.
func (en *Engine) Delete(id item.ID) (err error) {
	defer en.endOp(en.beginOp(), nil, &err)
	if err := en.known(id); err != nil {
		return err
	}
	victims := en.deletionSet(id)
	if len(victims) == 0 {
		return fmt.Errorf("%w: item %d", ErrDeleted, id)
	}
	// A pattern in the victim set with a surviving inheritor blocks the
	// deletion: the inheritors would silently lose inherited information.
	victimSet := make(map[item.ID]bool, len(victims))
	for _, v := range victims {
		victimSet[v] = true
	}
	v := en.View()
	for _, vid := range victims {
		if o, ok := en.st.object(vid); ok && o.Pattern && o.Parent == item.NoID {
			for _, inh := range pattern.InheritorsOf(v, vid) {
				if !victimSet[inh] {
					return fmt.Errorf("%w: object %d is inherited by %d", ErrHasInheritors, vid, inh)
				}
			}
		}
	}
	// The cascade perturbs every victim, the relationship lists of every
	// victim relationship's ends and the child list of every victim
	// sub-object's parent (unlinking), and the name index entries of deleted
	// independent roots: claim the full write set before applying.
	claims := append([]item.ID(nil), victims...)
	for _, vid := range victims {
		if r, ok := en.st.rel(vid); ok {
			for _, e := range r.Ends {
				claims = append(claims, e.Object)
			}
		} else if o, ok := en.st.object(vid); ok {
			claims = append(claims, o.Parent) // NoID for roots: skipped
		}
	}
	if err := en.claimItems(claims...); err != nil {
		return err
	}
	for _, vid := range victims {
		if o, ok := en.st.object(vid); ok && o.Independent() {
			if err := en.claimName(o.Name); err != nil {
				return err
			}
		}
	}
	mark := en.mark()
	for _, vid := range victims {
		en.deleteRaw(vid)
	}
	// Run attached procedures for every deleted item; any veto undoes the
	// whole cascade.
	for _, vid := range victims {
		kind, _ := en.st.kindOf(vid)
		if err := en.runProcedures(Event{Op: OpDelete, Item: vid, Kind: kind, View: en.View()}); err != nil {
			en.rollbackTo(mark)
			return err
		}
	}
	if err := en.validatePatternContextsAfterDelete(victims); err != nil {
		en.rollbackTo(mark)
		return err
	}
	en.commitRecord(en.encDelete(id))
	return nil
}

// deletionSet computes the cascade: the item, its live subtree, every live
// relationship referencing a deleted object, and those relationships'
// subtrees, in deterministic order.
func (en *Engine) deletionSet(id item.ID) []item.ID {
	var out []item.ID
	seen := make(map[item.ID]bool)
	var addItem func(item.ID)
	addItem = func(x item.ID) {
		if seen[x] {
			return
		}
		if o, ok := en.st.object(x); ok {
			if o.Deleted {
				return
			}
			seen[x] = true
			out = append(out, x)
			for _, ch := range en.subtreeObjects(x) {
				if !seen[ch] {
					seen[ch] = true
					out = append(out, ch)
				}
			}
			// Relationships referencing the object or any deleted child.
			for _, sub := range append([]item.ID{x}, en.subtreeObjects(x)...) {
				for _, rid := range en.st.relsOf(sub) {
					addItem(rid)
				}
			}
			return
		}
		if r, ok := en.st.rel(x); ok {
			if r.Deleted {
				return
			}
			seen[x] = true
			out = append(out, x)
			for _, ch := range en.subtreeObjects(x) {
				addItem(ch)
			}
		}
	}
	addItem(id)
	return out
}

// subtreeObjects lists the live descendant objects of an item, depth-first
// (roles in name order, index order within a role).
func (en *Engine) subtreeObjects(root item.ID) []item.ID {
	var out []item.ID
	var walk func(item.ID)
	walk = func(p item.ID) {
		for _, ch := range en.st.childrenAll(p) {
			out = append(out, ch)
			walk(ch)
		}
	}
	walk(root)
	return out
}

// subtreeRels lists the live relationships referencing an object subtree.
func (en *Engine) subtreeRels(root item.ID) []item.ID {
	var out []item.ID
	seen := make(map[item.ID]bool)
	for _, id := range append([]item.ID{root}, en.subtreeObjects(root)...) {
		for _, rid := range en.st.relsOf(id) {
			if !seen[rid] {
				seen[rid] = true
				out = append(out, rid)
			}
		}
	}
	return out
}

// Reclassify moves a data item within its generalization hierarchy: down to
// make vague information more precise ('Thing' -> 'Data' -> 'OutputData',
// 'Access' -> 'Write'), or up to weaken it again. The new classification
// must belong to the same generalization family, and every consistency rule
// is re-checked for the item, its sub-objects, and its relationships.
func (en *Engine) Reclassify(id item.ID, newName string) (err error) {
	defer en.endOp(en.beginOp(), nil, &err)
	if o, err := en.liveObject(id); err == nil {
		return en.reclassifyObject(o, newName)
	} else if k, known := en.st.kindOf(id); known && k == item.KindObject {
		return err
	}
	r, err := en.liveRel(id)
	if err != nil {
		return fmt.Errorf("%w: item %d", ErrUnknownItem, id)
	}
	return en.reclassifyRel(r, newName)
}

func (en *Engine) reclassifyObject(o item.Object, newName string) error {
	ncls, err := en.sch.Class(newName)
	if err != nil {
		return err
	}
	if !o.Independent() {
		return fmt.Errorf("%w: sub-object classes are fixed by their role", ErrBadReclassify)
	}
	if ncls.Root() != o.Class.Root() {
		return fmt.Errorf("%w: %q and %q are not in one generalization hierarchy",
			ErrBadReclassify, o.Class.QualifiedName(), newName)
	}
	// Claim before the no-op check: a reclassification must not succeed on
	// another transaction's uncommitted item.
	if err := en.claimItems(o.ID); err != nil {
		return err
	}
	if ncls == o.Class {
		return nil
	}
	mark := en.mark()
	id := o.ID
	en.setClassRaw(id, o.Class, ncls)

	// Re-check the object, its sub-objects (their roles must still resolve
	// to the same classes under the new classification), and its
	// relationships (role membership under the new class).
	if err := consistency.CheckObject(en.View(), id); err != nil {
		en.rollbackTo(mark)
		return err
	}
	for _, ch := range en.subtreeObjects(id) {
		if err := consistency.CheckObject(en.View(), ch); err != nil {
			en.rollbackTo(mark)
			return fmt.Errorf("%w: sub-object %d: %v", ErrBadReclassify, ch, err)
		}
	}
	for _, rid := range en.st.relsOf(id) {
		if err := consistency.CheckRelationship(en.View(), rid); err != nil {
			en.rollbackTo(mark)
			return fmt.Errorf("%w: relationship %d: %v", ErrBadReclassify, rid, err)
		}
	}
	return en.finishMutation(id, item.KindObject, OpReclassify, mark, en.encReclassify(id, newName))
}

func (en *Engine) reclassifyRel(r item.Relationship, newName string) error {
	if r.Inherits {
		return fmt.Errorf("%w: inherits-relationships have no association", ErrBadReclassify)
	}
	nas, err := en.sch.Association(newName)
	if err != nil {
		return err
	}
	if nas.Root() != r.Assoc.Root() {
		return fmt.Errorf("%w: %q and %q are not in one generalization hierarchy",
			ErrBadReclassify, r.Assoc.Name(), newName)
	}
	if err := en.claimItems(r.ID); err != nil {
		return err
	}
	if nas == r.Assoc {
		return nil
	}
	mark := en.mark()
	id := r.ID
	en.setAssocRaw(id, r.Assoc, nas)

	if err := consistency.CheckRelationship(en.View(), id); err != nil {
		en.rollbackTo(mark)
		return err
	}
	// Attribute sub-objects must still resolve under the new association
	// ('NumberOfWrites' exists on 'Write' but not on 'Access').
	for _, ch := range en.subtreeObjects(id) {
		if err := consistency.CheckObject(en.View(), ch); err != nil {
			en.rollbackTo(mark)
			return fmt.Errorf("%w: attribute %d: %v", ErrBadReclassify, ch, err)
		}
	}
	return en.finishMutation(id, item.KindRelationship, OpReclassify, mark, en.encReclassify(id, newName))
}

// finishMutation runs the post-state validation pipeline shared by all
// mutations: consistency rules for the touched item, pattern context
// re-validation, attached procedures, then staging the journal record. On
// any failure the mutation is undone.
func (en *Engine) finishMutation(id item.ID, kind item.Kind, op Op, mark int, record []byte) error {
	var err error
	if kind == item.KindObject {
		err = en.validateObject(id)
	} else {
		err = en.validateRel(id)
	}
	if err == nil {
		err = en.runProcedures(Event{Op: op, Item: id, Kind: kind, View: en.View()})
	}
	if err != nil {
		en.rollbackTo(mark)
		return err
	}
	en.commitRecord(record)
	return nil
}
