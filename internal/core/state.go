package core

import (
	"fmt"
	"sort"

	"repro/internal/item"
)

// State capture and restoration: the version manager freezes changed item
// states when a version is created, and restores a materialized view when a
// historical version is selected as the basis of an alternative.

// DirtyIDs returns the items changed since the last version freeze, in
// ascending ID order.
func (en *Engine) DirtyIDs() []item.ID { return en.dirty.IDs() }

// DirtyCount returns the number of items changed since the last freeze.
func (en *Engine) DirtyCount() int { return en.dirty.Len() }

// ClearDirty forgets all change marks (called after a version freeze).
func (en *Engine) ClearDirty() { en.dirty.Reset() }

// CaptureAll returns copies of every item state, including deleted items,
// in ascending ID order — the full database snapshot. Relationship Ends are
// cloned: the caller owns the result outright.
func (en *Engine) CaptureAll() ([]item.Object, []item.Relationship) {
	objIDs := en.st.objectIDs()
	objs := make([]item.Object, 0, len(objIDs))
	for _, id := range objIDs {
		o, _ := en.st.object(id)
		objs = append(objs, o)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i].ID < objs[j].ID })
	relIDs := en.st.relIDs()
	rels := make([]item.Relationship, 0, len(relIDs))
	for _, id := range relIDs {
		r, _ := en.st.rel(id)
		rels = append(rels, r.Clone())
	}
	sort.Slice(rels, func(i, j int) bool { return rels[i].ID < rels[j].ID })
	return objs, rels
}

// Restore replaces the whole engine state with the given item states
// (typically a materialized version view). ID allocation continues from the
// engine's high-water mark so that items created after the restore never
// collide with items frozen in other versions. The dirty set is cleared;
// the caller establishes the new version base.
func (en *Engine) Restore(objs []item.Object, rels []item.Relationship) {
	en.st = newColStore(en.attrSpecs)
	en.indexCtr = make(map[item.ID]map[string]int)
	en.dirty.Reset()
	en.inheritsLive = make(map[item.ID]bool)
	en.invalidateFrozen() // wholesale replacement: the COW base is meaningless
	// Conflict stamps refer to the replaced state; callers guarantee no
	// transaction is open across a restore (seed rejects it with ErrTxOpen).
	en.modGen = make(map[item.ID]uint64)
	en.nameGen = make(map[string]uint64)

	for i := range objs {
		o := objs[i] // copy; the store takes ownership
		en.st.insertObject(&o)
		en.bumpID(o.ID)
		if !o.Independent() && o.Index != item.NoIndex {
			en.bumpIndex(o.Parent, o.Role, o.Index)
		}
	}
	for i := range rels {
		r := rels[i].Clone() // the store takes ownership of the Ends
		en.st.insertRel(&r)
		en.bumpID(r.ID)
		if !r.Deleted {
			for _, e := range r.Ends {
				en.st.linkRel(e.Object, r.ID)
			}
			if r.Inherits {
				en.inheritsLive[r.ID] = true
			}
		}
	}
	// Link live objects into the name and containment indexes once every
	// parent row exists — relationships own attribute sub-objects too.
	for i := range objs {
		switch o := &objs[i]; {
		case o.Deleted:
		case o.Independent():
			en.st.setName(o.Name, o.ID)
		default:
			en.st.linkChild(o.Parent, o.Role, o.ID, o.Index)
		}
	}
}

// PurgeDeleted physically removes marked-deleted items for which keep
// returns false. Deletion marks exist so that version creation can record
// deletions cheaply; once every version that needs an item's state holds
// it (or no version ever saw the item), the tombstone can go. Returns the
// number of purged items. Must not run inside a transaction.
func (en *Engine) PurgeDeleted(keep func(item.ID) bool) (int, error) {
	if len(en.open) > 0 {
		return 0, fmt.Errorf("%w: purge inside transaction", ErrTxState)
	}
	// snapDirty marks are deliberately kept: a purged item may have been
	// deleted after the last frozen generation, and the next delta freeze
	// needs the mark to tombstone it (it finds the item in neither live
	// table and hides the previous generation's entry).
	purged := 0
	for _, id := range en.st.objectIDs() {
		o, _ := en.st.object(id)
		if o.Deleted && !keep(id) {
			en.st.removeObject(id)
			en.dirty.Remove(id)
			delete(en.indexCtr, id)
			delete(en.modGen, id)
			purged++
		}
	}
	for _, id := range en.st.relIDs() {
		r, _ := en.st.rel(id)
		if r.Deleted && !keep(id) {
			en.st.removeRel(id)
			en.dirty.Remove(id)
			delete(en.modGen, id)
			purged++
		}
	}
	return purged, nil
}

// RestoreDirty re-installs change marks (used when loading a snapshot that
// was taken with unsaved changes).
func (en *Engine) RestoreDirty(ids []item.ID) {
	for _, id := range ids {
		en.dirty.Add(id)
	}
}

// ForceNextID raises the ID allocation high-water mark.
func (en *Engine) ForceNextID(id item.ID) { en.bumpID(id - 1) }

// Stats summarizes the engine state for reports and the shell.
type Stats struct {
	Objects          int // live objects
	Relationships    int // live relationships
	DeletedObjects   int
	DeletedRels      int
	Patterns         int // live pattern items
	DirtySinceFreeze int
}

// Stats computes current state statistics.
func (en *Engine) Stats() Stats {
	var s Stats
	for _, id := range en.st.objectIDs() {
		o, _ := en.st.object(id)
		switch {
		case o.Deleted:
			s.DeletedObjects++
		default:
			s.Objects++
			if o.Pattern {
				s.Patterns++
			}
		}
	}
	for _, id := range en.st.relIDs() {
		r, _ := en.st.rel(id)
		switch {
		case r.Deleted:
			s.DeletedRels++
		default:
			s.Relationships++
			if r.Pattern {
				s.Patterns++
			}
		}
	}
	s.DirtySinceFreeze = en.dirty.Len()
	return s
}

// SymbolCount reports the total entries across the store's intern tables
// (class/association/role names, root names, short string values). The
// tables are append-only between snapshots, so a long churn of unique values
// grows them without bound — the database layer rebuilds them at compaction
// and uses this count to verify the rebuild took.
func (en *Engine) SymbolCount() int {
	return en.st.schemaSyms.Len() + en.st.nameSyms.Len() + en.st.valSyms.Len()
}
