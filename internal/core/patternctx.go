package core

import (
	"sort"

	"repro/internal/item"
	"repro/internal/pattern"
)

// Pattern context re-validation: after a mutation that touches a pattern or
// an inheritor, the affected inheritor contexts are re-checked through a
// spliced view, because inherited items count toward the inheritor's
// cardinalities and memberships ("Patterns ... are not checked for
// consistency unless they are inherited by a 'normal' data item").

// rootOf walks up the containment hierarchy to the item owning id's
// subtree: the independent object, or the relationship for attribute
// sub-objects.
func (en *Engine) rootOf(id item.ID) item.ID {
	cur := id
	for {
		o, ok := en.st.object(cur)
		if !ok {
			return cur // a relationship, or unknown
		}
		if o.Parent == item.NoID {
			return cur
		}
		cur = o.Parent
	}
}

// affectedInheritors computes which inheritor contexts a mutation on id may
// have changed.
func (en *Engine) affectedInheritors(id item.ID) []item.ID {
	v := en.View()
	affected := make(map[item.ID]bool)
	root := en.rootOf(id)
	if o, ok := en.st.object(root); ok {
		switch {
		case o.Pattern:
			for _, inh := range pattern.InheritorsOf(v, root) {
				affected[inh] = true
			}
		default:
			if len(pattern.PatternsOf(v, root)) > 0 {
				affected[root] = true
			}
		}
	} else if r, ok := en.st.rel(root); ok {
		if r.Inherits {
			if inh := r.End(item.InheritsInheritorRole); inh != item.NoID {
				affected[inh] = true
			}
		} else {
			for _, e := range r.Ends {
				if o, ok := en.st.object(e.Object); ok && o.Pattern {
					for _, inh := range pattern.InheritorsOf(v, e.Object) {
						affected[inh] = true
					}
				}
			}
		}
	}
	out := make([]item.ID, 0, len(affected))
	for inh := range affected {
		out = append(out, inh)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// validatePatternContexts re-checks every inheritor context a mutation on
// id may have changed.
func (en *Engine) validatePatternContexts(id item.ID) error {
	if len(en.inheritsLive) == 0 {
		return nil
	}
	affected := en.affectedInheritors(id)
	if len(affected) == 0 {
		return nil
	}
	sp := pattern.NewSpliced(en.View())
	for _, inh := range affected {
		if err := sp.ValidateInheritor(inh); err != nil {
			return err
		}
	}
	return nil
}

// validatePatternContextsAfterDelete re-checks inheritor contexts after a
// cascade deletion. Deleting items can only remove inherited information,
// which never violates maximum cardinalities; but deleting an end of a
// pattern relationship may leave inherited relationships dangling, so the
// surviving contexts of patterns whose relationships were deleted are
// re-checked.
func (en *Engine) validatePatternContextsAfterDelete(victims []item.ID) error {
	if len(en.inheritsLive) == 0 {
		return nil
	}
	v := en.View()
	affected := make(map[item.ID]bool)
	for _, vid := range victims {
		if r, ok := en.st.rel(vid); ok && !r.Inherits {
			for _, e := range r.Ends {
				if o, ok := en.st.object(e.Object); ok && !o.Deleted && o.Pattern {
					for _, inh := range pattern.InheritorsOf(v, e.Object) {
						affected[inh] = true
					}
				}
			}
		}
	}
	if len(affected) == 0 {
		return nil
	}
	ids := make([]item.ID, 0, len(affected))
	for inh := range affected {
		ids = append(ids, inh)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	sp := pattern.NewSpliced(v)
	for _, inh := range ids {
		if err := sp.ValidateInheritor(inh); err != nil {
			return err
		}
	}
	return nil
}
