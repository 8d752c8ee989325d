package core

import (
	"repro/internal/item"
)

// Raw state primitives: each applies one physical change to the store and
// pushes the inverse onto the undo stack. Public operations compose these,
// validate the result, and roll back on failure.

// mark returns the current undo stack depth of the active scope (the active
// transaction's private stack, or the engine's auto-commit stack).
func (en *Engine) mark() int {
	if tx := en.curTx; tx != nil {
		return len(tx.undo)
	}
	return len(en.undo)
}

// push records an undo step on the active scope. During replay nothing is
// recorded: replayed records were validated when first written and are never
// rolled back.
func (en *Engine) push(fn func()) {
	if en.replaying {
		return
	}
	if tx := en.curTx; tx != nil {
		tx.undo = append(tx.undo, fn)
		return
	}
	en.undo = append(en.undo, fn)
}

// rollbackTo undoes every step of the active scope back to a mark.
func (en *Engine) rollbackTo(mark int) {
	if tx := en.curTx; tx != nil {
		for i := len(tx.undo) - 1; i >= mark; i-- {
			tx.undo[i]()
		}
		tx.undo = tx.undo[:mark]
		return
	}
	for i := len(en.undo) - 1; i >= mark; i-- {
		en.undo[i]()
	}
	en.undo = en.undo[:mark]
}

// markDirty remembers that an item changed since the last version freeze and
// since the last frozen snapshot generation. Inside a transaction the
// snapshot mark goes to the transaction's private write set — uncommitted
// items must never enter a frozen generation — and is merged into snapDirty
// at commit (or, conservatively, at rollback: the item is back in its
// pre-change state, and the next delta freeze re-reads that state from the
// live store, so a conservative mark only costs one spurious patch). Outside
// a transaction the mutation is committed on the spot, so the item is also
// stamped with a fresh commit generation: an open transaction that began
// earlier can no longer claim it.
func (en *Engine) markDirty(id item.ID) {
	if tx := en.curTx; tx != nil {
		tx.touched[id] = true
	} else {
		en.snapDirty[id] = true
		if !en.replaying && len(en.open) > 0 {
			en.commitGen++
			en.modGen[id] = en.commitGen
		}
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
