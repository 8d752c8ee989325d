package core

import (
	"repro/internal/item"
	"repro/internal/schema"
	"repro/internal/value"
)

// Raw state primitives: each applies one physical change to the store and
// pushes the inverse onto the active transaction's undo log. Public
// operations compose these, validate the result, and roll back on failure;
// a replayed journal batch composes them unvalidated (ApplyRecords). Every
// change is undoable until its transaction's write set publishes.

// mark returns the depth of the active transaction's undo log.
func (en *Engine) mark() int { return len(en.curTx.undo) }

// push records an undo step on the active transaction.
func (en *Engine) push(fn func()) {
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
func (en *Engine) markDirty(id item.ID) {
	en.curTx.touched[id] = true
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

// setValueRaw, setClassRaw and setAssocRaw replace an object's value, an
// object's class and a relationship's association; old is what it had.
func (en *Engine) setValueRaw(id item.ID, old, v value.Value) {
	en.st.setValue(id, v)
	en.push(func() { en.st.setValue(id, old) })
	en.markDirty(id)
}

func (en *Engine) setClassRaw(id item.ID, old, c *schema.Class) {
	en.st.setClass(id, c)
	en.push(func() { en.st.setClass(id, old) })
	en.markDirty(id)
}

func (en *Engine) setAssocRaw(id item.ID, old, a *schema.Association) {
	en.st.setAssoc(id, a)
	en.push(func() { en.st.setAssoc(id, old) })
	en.markDirty(id)
}

// bumpIndexRaw is bumpIndex for a replayed sub-object, with undo.
func (en *Engine) bumpIndexRaw(parent item.ID, role string, index int) {
	if index == item.NoIndex {
		return
	}
	old := en.indexCtr[parent][role]
	en.bumpIndex(parent, role, index)
	en.push(func() { en.indexCtr[parent][role] = old })
}
