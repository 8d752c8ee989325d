package core

import (
	"sort"

	"repro/internal/item"
	"repro/internal/schema"
)

// Frozen views: immutable snapshots of the engine's raw view. The engine
// itself is single-writer and its rawView reads the live store, so a reader
// that walks several items can observe a half-applied batch. A frozen view
// captures the state once, under the caller's lock, and is thereafter safe
// for any number of concurrent readers while the engine keeps mutating — the
// seed database builds one per mutation generation and shares it between all
// snapshot views of that generation.
//
// Snapshots are generational and copy-on-write: the engine tracks the items
// dirtied since the last freeze (every mutation funnels through markDirty)
// and hands the set to the store. Its rows live in chunked versioned arrays
// (verarr.go) and its dense indexes — the ID lists, the class extents and
// both attribute index kinds — in chunked sorted runs (item.Run); both
// share every untouched chunk with the previous generation, so a small
// commit freezes in O(delta × log n + chunk table), not O(n). The dirty set
// drives the index patches and, while transactions are staged, the choice
// of which items to patch. The name index is the one exception: a freeze
// that interns a new root name extends it in O(names) (patchNameIndex).
//
// Accessors return shared, immutable slices and relationship values whose
// Ends are shared — callers must not modify results (the item.View
// contract); anyone needing a mutable copy clones explicitly.

// FrozenView returns the frozen snapshot of the engine's current raw view
// (deleted items hidden, patterns visible) as an immutable item.View. The
// caller must hold whatever lock protects the engine during the call —
// FrozenView also updates the engine's snapshot bookkeeping, so concurrent
// FrozenView calls must be serialized by the caller (the seed database uses
// a dedicated snapshot mutex). The returned view needs no locking at all.
func (en *Engine) FrozenView() item.View {
	f := en.st.freezeView(en.sch, en.snapDirty, len(en.open) > 0)
	en.snapDirty = make(map[item.ID]bool)
	return f
}

// FrozenViewRebuild builds a self-contained frozen view from scratch,
// bypassing the copy-on-write path and leaving the incremental bookkeeping
// untouched. The differential tests compare it against FrozenView after
// every operation.
func (en *Engine) FrozenViewRebuild() item.View { return en.st.fullFreeze(en.sch) }

// FreezeItems builds the self-contained frozen view of a saved version that
// no live generation holds: a fresh engine over sch with the given attribute
// indexes (one whose class sch lacks is skipped), restored from the
// version's item states and rebound to sch, then frozen from scratch.
func FreezeItems(sch *schema.Schema, specs []item.AttrSpec, objs []item.Object, rels []item.Relationship) (item.View, error) {
	en, err := NewEngine(sch)
	if err != nil {
		return nil, err
	}
	for _, spec := range specs {
		_ = en.CreateAttrIndex(spec)
	}
	en.Restore(objs, rels)
	if err := en.RebindSchema(); err != nil {
		return nil, err
	}
	return en.FrozenViewRebuild(), nil
}

// invalidateFrozen drops the incremental snapshot base: the next FrozenView
// rebuilds from scratch. Called whenever the engine changes in ways the
// dirty-set does not capture (whole-state restore, schema rebinding).
func (en *Engine) invalidateFrozen() {
	en.st.lastFrozen = nil
	en.snapDirty = make(map[item.ID]bool)
}

func sortIDs(ids []item.ID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}
