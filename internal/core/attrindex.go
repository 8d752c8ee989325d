package core

import (
	"errors"
	"fmt"

	"repro/internal/item"
)

// Attribute index maintenance. The registered specs live on the engine and
// are shared with the store (colStore.attrSpecs); every frozen generation
// carries one immutable item.AttrIdx per spec, built from scratch on a full
// freeze and patched from the previous generation otherwise — the same
// per-generation discipline as the class and name indexes, and safe while
// transactions are staged for the same reason: patching reads only frozen
// data (the new and previous generations) plus the dirty set, never the
// live state wholesale.

// Attribute index errors.
var (
	ErrNoAttrIndex = errors.New("core: no such attribute index")
)

// AttrIndexes returns the registered attribute index specs.
func (en *Engine) AttrIndexes() []item.AttrSpec {
	return append([]item.AttrSpec(nil), en.attrSpecs...)
}

// CreateAttrIndex registers an attribute index. The next frozen generation
// is rebuilt from scratch with the index included; thereafter it is
// maintained incrementally. Registering an existing key again re-kinds it.
// Refused while transactions are staged — the rebuild reads live state
// wholesale. Indexes are an in-memory acceleration, not journaled state: a
// restarted or restored engine starts without them.
func (en *Engine) CreateAttrIndex(spec item.AttrSpec) error {
	if len(en.open) > 0 {
		return fmt.Errorf("%w: index DDL inside transaction", ErrTxState)
	}
	if !spec.Kind.Valid() {
		return fmt.Errorf("core: invalid attribute index kind %d", spec.Kind)
	}
	if _, err := en.sch.Class(spec.Key.Class); err != nil {
		return err
	}
	if _, err := item.SplitAttrPath(spec.Key.Path); err != nil {
		return fmt.Errorf("core: %v", err)
	}
	for i := range en.attrSpecs {
		if en.attrSpecs[i].Key == spec.Key {
			if en.attrSpecs[i].Kind == spec.Kind {
				return nil // already registered as requested
			}
			en.attrSpecs[i].Kind = spec.Kind // the store shares the slice
			en.invalidateFrozen()
			return nil
		}
	}
	en.attrSpecs = append(en.attrSpecs, spec)
	en.st.attrSpecs = en.attrSpecs
	en.invalidateFrozen()
	return nil
}

// DropAttrIndex unregisters an attribute index.
func (en *Engine) DropAttrIndex(key item.AttrKey) error {
	if len(en.open) > 0 {
		return fmt.Errorf("%w: index DDL inside transaction", ErrTxState)
	}
	for i := range en.attrSpecs {
		if en.attrSpecs[i].Key == key {
			en.attrSpecs = append(en.attrSpecs[:i], en.attrSpecs[i+1:]...)
			en.st.attrSpecs = en.attrSpecs
			en.invalidateFrozen()
			return nil
		}
	}
	return fmt.Errorf("%w: %s", ErrNoAttrIndex, key)
}

// attrRoles resolves a spec's role path (validated at registration).
func attrRoles(spec item.AttrSpec) []string {
	roles, err := item.SplitAttrPath(spec.Key.Path)
	if err != nil {
		return nil
	}
	return roles
}

// buildAttrs builds every registered index from scratch over a finished
// generation (the full-freeze and scan paths). Roots come from the class
// index, so the cost is proportional to the indexed class populations.
func buildAttrs(specs []item.AttrSpec, f *colFrozen) map[item.AttrKey]*item.AttrIdx {
	if len(specs) == 0 {
		return nil
	}
	out := make(map[item.AttrKey]*item.AttrIdx, len(specs))
	for _, spec := range specs {
		out[spec.Key] = buildOneAttr(spec, f)
	}
	return out
}

func buildOneAttr(spec item.AttrSpec, f *colFrozen) *item.AttrIdx {
	roles := attrRoles(spec)
	var posts []item.AttrPosting
	roots, _ := f.ObjectsOfClass(spec.Key.Class)
	for _, root := range roots {
		posts = append(posts, f.attrPostings(root, roles)...)
	}
	return item.NewAttrIdx(spec.Kind, posts)
}

// patchAttrs derives a generation's indexes from the previous generation's:
// walking the parent chains of every dirty item in both the new and the
// previous state finds the affected roots per indexed class (a value change
// on a leaf re-indexes the root several containment levels up; a
// reclassified or deleted root shows up through whichever chain still
// resolves it), then each touched index removes those roots' old postings
// and inserts their fresh ones. Untouched specs share the previous index
// pointer; a touched one rebuilds only the run chunks those postings land
// in, so its cost is the affected roots' postings times log n plus the
// run's chunk table — never the class population or the database.
func patchAttrs(specs []item.AttrSpec, f, prev *colFrozen, dirty map[item.ID]bool) map[item.AttrKey]*item.AttrIdx {
	if len(specs) == 0 {
		return nil
	}
	byClass := make(map[string][]int, len(specs)) // class -> spec indices
	for i, spec := range specs {
		byClass[spec.Key.Class] = append(byClass[spec.Key.Class], i)
	}
	affected := make(map[string]map[item.ID]bool)
	mark := func(v *colFrozen, id item.ID) {
		cur := id
		for hops := 0; hops < 1_000_000; hops++ { // cycle guard
			o, ok := v.Object(cur)
			if !ok {
				return // deleted, a relationship, or a relationship-rooted chain
			}
			if qn := o.Class.QualifiedName(); byClass[qn] != nil {
				set := affected[qn]
				if set == nil {
					set = make(map[item.ID]bool)
					affected[qn] = set
				}
				set[cur] = true
			}
			if o.Parent == item.NoID {
				return
			}
			cur = o.Parent
		}
	}
	for id := range dirty {
		mark(f, id)
		mark(prev, id)
	}

	out := make(map[item.AttrKey]*item.AttrIdx, len(specs))
	for _, spec := range specs {
		prevIdx, ok := prev.AttrIndex(spec.Key)
		if !ok || prevIdx == nil {
			// The spec was registered without an invalidation (defensive):
			// build this index from scratch.
			out[spec.Key] = buildOneAttr(spec, f)
			continue
		}
		roots := affected[spec.Key.Class]
		if len(roots) == 0 {
			out[spec.Key] = prevIdx
			continue
		}
		roles := attrRoles(spec)
		var remove, add []item.AttrPosting
		for root := range roots {
			if o, ok := prev.Object(root); ok && o.Class.QualifiedName() == spec.Key.Class {
				remove = append(remove, prev.attrPostings(root, roles)...)
			}
			if o, ok := f.Object(root); ok && o.Class.QualifiedName() == spec.Key.Class {
				add = append(add, f.attrPostings(root, roles)...)
			}
		}
		out[spec.Key] = prevIdx.Patch(remove, add)
	}
	return out
}
