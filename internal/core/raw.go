package core

import (
	"repro/internal/item"
)

// Raw state primitives: each applies one physical change to the store and
// pushes the inverse onto the active transaction's undo log. Public
// operations compose these, validate the result, and roll back on failure.

// mark returns the depth of the active transaction's undo log.
func (en *Engine) mark() int { return len(en.curTx.undo) }

// push records an undo step on the active transaction. During replay
// nothing is recorded: replayed records were validated when first written
// and are never rolled back.
func (en *Engine) push(fn func()) {
	if en.replaying {
		return
	}
	en.curTx.undo = append(en.curTx.undo, fn)
}

// rollbackTo undoes every step of the active transaction back to a mark.
func (en *Engine) rollbackTo(mark int) {
	tx := en.curTx
	for i := len(tx.undo) - 1; i >= mark; i-- {
		tx.undo[i]()
	}
	tx.undo = tx.undo[:mark]
}

// markDirty remembers that an item changed since the last version freeze and
// since the last frozen snapshot generation. The snapshot mark goes to the
// active transaction's write set — uncommitted items must never enter a
// frozen generation — and reaches snapDirty when the transaction publishes
// (or, conservatively, when it rolls back: the item is back in its
// pre-change state, and the next delta freeze re-reads that state from the
// live store, so a conservative mark only costs one spurious patch).
// Replayed records were committed when first written and mark snapDirty
// directly.
func (en *Engine) markDirty(id item.ID) {
	if en.replaying {
		en.snapDirty[id] = true
	} else {
		en.curTx.touched[id] = true
	}
	if !en.dirty.Add(id) {
		return
	}
	en.push(func() { en.dirty.Remove(id) })
}

// insertObjectRaw adds a new object to the store and its indexes.
func (en *Engine) insertObjectRaw(o *item.Object) {
	c := *o // undo closes over the value, not the store's row
	en.st.insertObject(o)
	if c.Independent() {
		en.st.setName(c.Name, c.ID)
	} else {
		en.st.linkChild(c.Parent, c.Role, c.ID, c.Index)
	}
	en.markDirty(c.ID)
	en.push(func() {
		if c.Independent() {
			en.st.delName(c.Name)
		} else {
			en.st.unlinkChild(c.Parent, c.Role, c.ID)
		}
		en.st.removeObject(c.ID)
	})
}

// insertRelRaw adds a new relationship to the store and its indexes. The
// store takes ownership of r; its Ends slice becomes shared immutable data.
func (en *Engine) insertRelRaw(r *item.Relationship) {
	id, ends, inh := r.ID, r.Ends, r.Inherits
	en.st.insertRel(r)
	for _, e := range ends {
		en.st.linkRel(e.Object, id)
	}
	if inh {
		en.inheritsLive[id] = true
	}
	en.markDirty(id)
	en.push(func() {
		for _, e := range ends {
			en.st.unlinkRel(e.Object, id)
		}
		delete(en.inheritsLive, id)
		en.st.removeRel(id)
	})
}

// deleteRaw marks one item deleted and removes it from the live indexes.
func (en *Engine) deleteRaw(id item.ID) {
	if o, ok := en.st.object(id); ok && !o.Deleted {
		en.st.setDeleted(id, true)
		if o.Independent() {
			en.st.delName(o.Name)
		} else {
			en.st.unlinkChild(o.Parent, o.Role, o.ID)
		}
		en.markDirty(id)
		en.push(func() {
			en.st.setDeleted(id, false)
			if o.Independent() {
				en.st.setName(o.Name, o.ID)
			} else {
				en.st.linkChild(o.Parent, o.Role, o.ID, o.Index)
			}
		})
		return
	}
	if r, ok := en.st.rel(id); ok && !r.Deleted {
		en.st.setDeleted(id, true)
		for _, e := range r.Ends {
			en.st.unlinkRel(e.Object, id)
		}
		delete(en.inheritsLive, id)
		en.markDirty(id)
		en.push(func() {
			en.st.setDeleted(id, false)
			for _, e := range r.Ends {
				en.st.linkRel(e.Object, id)
			}
			if r.Inherits {
				en.inheritsLive[id] = true
			}
		})
	}
}
