package core

import (
	"hash/maphash"
	"sort"
	"strings"

	"repro/internal/item"
	"repro/internal/schema"
	"repro/internal/value"
)

// Frozen generations of the columnar store. The store versions its rows as
// chunked verArrs (verarr.go) and its adjacency as chunked adjArrs
// (adjarr.go), and the live state itself
// is the builders of the next generation: freezing seals the builders
// — no row is copied, every untouched 1024-entry chunk is shared with the
// previous generation structurally — and restarts them over the sealed
// arrays. There is no chain to walk, no depth bound, and no collapse step;
// every generation is self-contained and costs O(delta + chunk table).
//
// While transactions are staged the builders contain uncommitted rows, so
// sealing them would leak staged state into a snapshot. That path instead
// builds the generation the other way around: builders over the *previous
// frozen* arrays, patched with exactly the dirty (committed) items.

// colFrozen is one immutable generation: the sealed arrays of the row and
// adjacency tables, the dense indexes, and a snapshot of the decoder side
// tables (the symbol tables themselves are append-only and shared with the
// live store). All methods are safe for concurrent readers.
type colFrozen struct {
	sch *schema.Schema
	dec colDecoder

	ords    verArr[item.TaggedOrd]
	objRows verArr[objRow]
	relRows verArr[relRow]

	objKidsF adjArr[kidRef]   // by object ordinal: live children
	relKidsF adjArr[kidRef]   // by relationship ordinal
	relsOfF  adjArr[struct{}] // by object ordinal: live relationships
	nameToID verArr[item.ID]  // by name symbol; NoID = name unbound

	// ID lists and class extents, as chunked sorted runs (item.Run) that
	// share every untouched chunk with the previous generation.
	byClass  []*item.Run[item.ID] // by class symbol: live objects
	objIDs   *item.Run[item.ID]   // live objects
	relIDs   *item.Run[item.ID]   // live relationships
	inherits *item.Run[item.ID]   // live inherits-relationships

	// Name indexes, maintained per generation like the class index.
	// nameStrs is a snapshot of the symbol table's published string array
	// (append-only, entries immutable), so probes resolve symbols without
	// the RWMutex round trip SymTab.Lookup pays per call. byName is the
	// ordered name index — every interned name symbol sorted by its string; the
	// query planner ranges over it for prefix name globs — and nameHash is
	// an open-addressed point-lookup table over the same symbols. Both may
	// hold symbols of currently unbound (deleted or staged) names:
	// liveness is decided by nameToID. Unbinding never shrinks them, so
	// they only grow with newly interned symbols and are shared
	// pointer-wise across generations otherwise.
	nameStrs   []string
	byName     []item.Sym
	nameHash   []item.Sym // power-of-two open addressing; NoSym = empty slot
	nameSymLen int        // nameSyms prefix covered by byName/nameHash

	attrs map[item.AttrKey]*item.AttrIdx // registered attribute indexes

	// patterns counts the live pattern objects and pattern relationships,
	// counted by scanIndexes and adjusted from the dirty rows by
	// patchIndexes; with inherits it decides PatternFree.
	patterns int
}

// nameHashSeed keys the frozen name-lookup tables. One process-wide seed
// keeps a table valid across every generation that shares it.
var nameHashSeed = maphash.MakeSeed()

// buildNameHash builds an open-addressed table at most half full, so the
// expected probe chain stays near one.
func buildNameHash(syms []item.Sym, strs []string) []item.Sym {
	size := 8
	for size < 2*(len(syms)+1) {
		size <<= 1
	}
	tab := make([]item.Sym, size)
	for _, s := range syms {
		nameHashInsert(tab, strs, s)
	}
	return tab
}

func nameHashInsert(tab []item.Sym, strs []string, s item.Sym) {
	mask := uint64(len(tab) - 1)
	h := maphash.String(nameHashSeed, strs[s]) & mask
	for tab[h] != item.NoSym {
		h = (h + 1) & mask
	}
	tab[h] = s
}

// ---- freeze policy ----

// freezeView returns the immutable snapshot of the current live state.
// Unstaged freezes seal the live builders; staged freezes (transactions are
// open, so the builders hold uncommitted rows) patch the dirty committed
// items over the previous generation instead — the dirty set only ever names
// committed changes, and the claim discipline keeps them disjoint from staged
// items. A nil base cannot coincide with staged changes because BeginTx pins
// a snapshot first, and the invalidating operations (restore, schema change)
// are rejected while transactions are open.
func (cs *colStore) freezeView(sch *schema.Schema, dirty map[item.ID]bool, staged bool) *colFrozen {
	prev := cs.lastFrozen
	if prev != nil && len(dirty) == 0 && prev.sch == sch {
		return prev
	}
	var f *colFrozen
	if staged && prev != nil {
		f = cs.deltaFreeze(sch, prev, dirty)
	} else {
		f = cs.sealFreeze(sch, prev, dirty)
	}
	cs.lastFrozen = f
	return f
}

// sealFreeze seals the live builders into a generation. Rows are not copied;
// the dense indexes are patched from the dirty set against prev when the
// schemas match, and scanned otherwise. Freezes run concurrently with other
// readers of the live store (the engine's caller holds a shared lock), so the
// builders are NOT restarted here: done() is a pure read, and the sealed flag
// defers the restart to the next mutation, which holds the exclusive lock
// (see colStore.reopen).
func (cs *colStore) sealFreeze(sch *schema.Schema, prev *colFrozen, dirty map[item.ID]bool) *colFrozen {
	f := &colFrozen{
		sch:      sch,
		dec:      cs.colDecoder.snapshot(),
		ords:     cs.ords.done(),
		objRows:  cs.objRows.done(),
		relRows:  cs.relRows.done(),
		objKidsF: cs.objKids.done(),
		relKidsF: cs.relKids.done(),
		relsOfF:  cs.relsOfA.done(),
		nameToID: cs.names.done(),
	}
	cs.sealed = true
	if prev != nil && prev.sch == sch {
		cs.patchIndexes(f, prev, dirty)
	} else {
		cs.scanIndexes(f)
	}
	return f
}

// scanIndexes builds the dense indexes of f by scanning its row arrays.
func (cs *colStore) scanIndexes(f *colFrozen) {
	var objIDs, relIDs, inherits []item.ID
	byClass := make([][]item.ID, cs.schemaSyms.Len())
	f.patterns = 0
	for ord := 0; ord < cs.objLen; ord++ {
		row := f.objRows.at(ord)
		if row.id == item.NoID || row.flags&rowDeleted != 0 {
			continue
		}
		objIDs = append(objIDs, row.id)
		byClass[row.classSym] = append(byClass[row.classSym], row.id)
		f.patterns += patternCount(row.flags)
	}
	for ord := 0; ord < cs.relLen; ord++ {
		row := f.relRows.at(ord)
		if row.id == item.NoID || row.flags&rowDeleted != 0 {
			continue
		}
		relIDs = append(relIDs, row.id)
		if row.flags&rowInherits != 0 {
			inherits = append(inherits, row.id)
		}
		f.patterns += patternCount(row.flags)
	}
	f.objIDs, f.relIDs, f.inherits = idRun(objIDs), idRun(relIDs), idRun(inherits)
	f.byClass = make([]*item.Run[item.ID], len(byClass))
	for sym, ids := range byClass {
		f.byClass[sym] = idRun(ids)
	}
	cs.scanNameIndex(f)
	f.attrs = buildAttrs(cs.attrSpecs, f)
}

// patternCount is a live row's contribution to colFrozen.patterns.
func patternCount(flags uint8) int {
	if flags&rowPattern != 0 {
		return 1
	}
	return 0
}

// patternsOf is id's contribution to the generation's pattern count.
func (f *colFrozen) patternsOf(id item.ID) int {
	if row, ok := f.objRowOf(id); ok {
		return patternCount(row.flags)
	}
	if row, ok := f.relRowOf(id); ok {
		return patternCount(row.flags)
	}
	return 0
}

// idRun sorts ids and wraps them in a run.
func idRun(ids []item.ID) *item.Run[item.ID] {
	sortIDs(ids)
	return item.NewRun(ids)
}

// scanNameIndex builds the name indexes from the full symbol table.
func (cs *colStore) scanNameIndex(f *colFrozen) {
	f.nameStrs = cs.nameSyms.Strs()
	f.nameSymLen = len(f.nameStrs)
	f.byName = make([]item.Sym, 0, f.nameSymLen-1)
	for s := 1; s < f.nameSymLen; s++ { // skip the reserved empty symbol
		f.byName = append(f.byName, item.Sym(s))
	}
	sort.Slice(f.byName, func(i, j int) bool { return f.nameStrs[f.byName[i]] < f.nameStrs[f.byName[j]] })
	f.nameHash = buildNameHash(f.byName, f.nameStrs)
}

// patchNameIndex extends prev's name indexes with the symbols interned
// since, sharing the arrays when no new name appeared (rebinding and
// unbinding change only nameToID, not the symbol set).
func (cs *colStore) patchNameIndex(f, prev *colFrozen) {
	f.nameStrs = cs.nameSyms.Strs()
	f.nameSymLen = len(f.nameStrs)
	if f.nameSymLen == prev.nameSymLen {
		f.byName, f.nameHash = prev.byName, prev.nameHash
		return
	}
	start := prev.nameSymLen
	if start == 0 {
		start = 1 // skip the reserved empty symbol
	}
	added := make([]item.Sym, 0, f.nameSymLen-start)
	for s := start; s < f.nameSymLen; s++ {
		added = append(added, item.Sym(s))
	}
	sort.Slice(added, func(i, j int) bool { return f.nameStrs[added[i]] < f.nameStrs[added[j]] })
	out := make([]item.Sym, 0, len(prev.byName)+len(added))
	ai := 0
	for _, s := range prev.byName {
		for ai < len(added) && f.nameStrs[added[ai]] < f.nameStrs[s] {
			out = append(out, added[ai])
			ai++
		}
		out = append(out, s)
	}
	f.byName = append(out, added[ai:]...)
	if 2*(len(f.byName)+1) <= len(prev.nameHash) {
		// Still under the load ceiling: extend a copy of the table.
		tab := append([]item.Sym(nil), prev.nameHash...)
		for _, s := range added {
			nameHashInsert(tab, f.nameStrs, s)
		}
		f.nameHash = tab
	} else {
		f.nameHash = buildNameHash(f.byName, f.nameStrs)
	}
}

// attrPostings derives the postings of one root off the shared path walk.
func (f *colFrozen) attrPostings(root item.ID, roles []string) []item.AttrPosting {
	syms, ok := f.roleSyms(roles)
	if !ok {
		return nil
	}
	var out []item.AttrPosting
	f.walkPath(root, syms, func(row *objRow) bool {
		if v := f.dec.decodeVal(row); v.IsDefined() {
			out = append(out, item.AttrPosting{Val: v, ID: root})
		}
		return false
	})
	return out
}

// roleSyms resolves a role path to schema symbols once per path; ok=false
// when some role was never interned, so no sub-object can play it.
func (f *colFrozen) roleSyms(roles []string) ([]item.Sym, bool) {
	syms := make([]item.Sym, len(roles))
	for i, role := range roles {
		sym, ok := f.dec.schemaSyms.Lookup(role)
		if !ok {
			return nil, false
		}
		syms[i] = sym
	}
	return syms, true
}

// walkPath visits, depth first in child order, the rows of the live
// sub-objects reached from id along the role symbols, in place — no value
// or item.Object is built. It stops and reports true as soon as visit does.
// Only the root's ID is resolved to an ordinal: below it, each kid list
// names its children's ordinals, so a step reads the list's two arrays in
// order and goes straight to each child's row.
func (f *colFrozen) walkPath(id item.ID, syms []item.Sym, visit func(*objRow) bool) bool {
	if len(syms) == 0 {
		row := f.liveObjRow(id)
		return row != nil && visit(row)
	}
	ids, refs := f.kidsOf(id)
	return f.walkKids(ids, refs, syms, visit)
}

// walkKids continues walkPath over one parent's kid list. A child's row is
// used only if it still holds the child (row.id) and is live: a purged
// hole, a tail ordinal an undo popped and a later insert reused, and a
// staged child a committed parent's list names in a staged-path freeze all
// fail that check.
func (f *colFrozen) walkKids(ids []item.ID, refs []kidRef, syms []item.Sym, visit func(*objRow) bool) bool {
	for i, ref := range refs {
		if ref.role != syms[0] {
			continue
		}
		row := f.objRows.ptr(int(ref.ord))
		if row == nil || row.id != ids[i] || row.flags&rowDeleted != 0 {
			continue
		}
		if len(syms) == 1 {
			if visit(row) {
				return true
			}
		} else if kids, krefs := f.objKidsF.at(int(ref.ord)); f.walkKids(kids, krefs, syms[1:], visit) {
			return true
		}
	}
	return false
}

// MatchPath implements item.PathMatcher over the frozen kid lists: the
// roles resolve to symbols and the comparison to a test over the row
// encoding (rowTest) once, and each candidate walks the shared path walk.
func (f *colFrozen) MatchPath(roles []string, op value.Op, c value.Value) func(item.ID) bool {
	syms, ok := f.roleSyms(roles)
	if !ok {
		return func(item.ID) bool { return false }
	}
	test := f.dec.rowTest(op, c)
	return func(root item.ID) bool { return f.walkPath(root, syms, test) }
}

// PatternFree reports that the generation holds no live pattern item and no
// inherits-relationship, so pattern splicing over it is the identity and
// the generation serves as its own user view.
func (f *colFrozen) PatternFree() bool { return f.patterns == 0 && f.inherits.Len() == 0 }

// patchIndexes derives f's dense indexes from prev's by classifying each
// dirty item: f's row arrays already hold the new truth (sealed or patched),
// so current state is read from f and previous state from prev. Each run
// then takes its additions and removals in one Patch, which rebuilds only
// the chunks they land in.
func (cs *colStore) patchIndexes(f, prev *colFrozen, dirty map[item.ID]bool) {
	var objAdd, objDel, relAdd, relDel, inhAdd, inhDel []item.ID
	classAdd := make(map[item.Sym][]item.ID)
	classDel := make(map[item.Sym][]item.ID)
	delClass := func(sym item.Sym, id item.ID) { classDel[sym] = append(classDel[sym], id) }
	f.patterns = prev.patterns

	for id := range dirty {
		f.patterns += f.patternsOf(id) - prev.patternsOf(id)
		tag := f.ords.at(int(id))
		switch {
		case tag.Valid() && tag.Kind() == item.KindObject:
			row := f.objRows.at(int(tag.Ord()))
			live := row.id == id && row.flags&rowDeleted == 0
			prevRow, had := prev.objRowOf(id)
			switch {
			case live && !had:
				objAdd = append(objAdd, id)
				classAdd[row.classSym] = append(classAdd[row.classSym], id)
			case live && had && prevRow.classSym != row.classSym: // reclassified
				delClass(prevRow.classSym, id)
				classAdd[row.classSym] = append(classAdd[row.classSym], id)
			case !live && had:
				objDel = append(objDel, id)
				delClass(prevRow.classSym, id)
			}
		case tag.Valid(): // relationship
			row := f.relRows.at(int(tag.Ord()))
			live := row.id == id && row.flags&rowDeleted == 0
			prevRow, had := prev.relRowOf(id)
			switch {
			case live && !had:
				relAdd = append(relAdd, id)
				if row.flags&rowInherits != 0 {
					inhAdd = append(inhAdd, id)
				}
			case !live && had:
				relDel = append(relDel, id)
				if prevRow.flags&rowInherits != 0 {
					inhDel = append(inhDel, id)
				}
			}
		default: // vanished from the store entirely (purged, or rolled back)
			if prevRow, had := prev.objRowOf(id); had {
				objDel = append(objDel, id)
				delClass(prevRow.classSym, id)
			} else if prevRow, had := prev.relRowOf(id); had {
				relDel = append(relDel, id)
				if prevRow.flags&rowInherits != 0 {
					inhDel = append(inhDel, id)
				}
			}
		}
	}

	f.objIDs = prev.objIDs.Patch(objAdd, objDel)
	f.relIDs = prev.relIDs.Patch(relAdd, relDel)
	f.inherits = prev.inherits.Patch(inhAdd, inhDel)

	// Class index: per-generation header copy (one pointer per class),
	// patched per touched class; an untouched class keeps its run.
	n := len(prev.byClass)
	if l := len(f.dec.classBySym); l > n {
		n = l
	}
	f.byClass = make([]*item.Run[item.ID], n)
	copy(f.byClass, prev.byClass)
	for sym, ids := range classAdd {
		f.byClass[sym] = f.byClass[sym].Patch(ids, classDel[sym])
		delete(classDel, sym)
	}
	for sym, ids := range classDel {
		f.byClass[sym] = f.byClass[sym].Patch(nil, ids)
	}

	cs.patchNameIndex(f, prev)
	f.attrs = patchAttrs(cs.attrSpecs, f, prev, dirty)
}

// deltaFreeze builds a generation over prev's arrays, patching in exactly
// the dirty committed items — the staged-transaction path, where the live
// builders hold uncommitted rows and must not be sealed. Adjacency and name
// entries are shared with the live state (both sides are immutable
// values). Added items set their own adjacency entries explicitly:
// a popped tail ordinal can be reused by a later insert, and the stale
// frozen entry at that ordinal must not survive into the new occupant's
// generation.
func (cs *colStore) deltaFreeze(sch *schema.Schema, prev *colFrozen, dirty map[item.ID]bool) *colFrozen {
	cs.gen++
	gen := cs.gen

	bOrds := prev.ords.builder(gen)
	bObjRows := prev.objRows.builder(gen)
	bRelRows := prev.relRows.builder(gen)
	bObjKids := prev.objKidsF.builder(gen)
	bRelKids := prev.relKidsF.builder(gen)
	bRelsOf := prev.relsOfF.builder(gen)
	bNames := prev.nameToID.builder(gen)

	// Derived entries to refresh from the live state after the item pass.
	touchedParents := make(map[item.ID]bool)
	touchedRelsOf := make(map[item.ID]bool)
	touchedNames := make(map[item.Sym]bool)

	for id := range dirty {
		tag := cs.ords.at(int(id))
		switch {
		case tag.Valid() && tag.Kind() == item.KindObject:
			ord := int(tag.Ord())
			row := cs.objRows.at(ord)
			bOrds.set(int(id), tag)
			bObjRows.set(ord, row)
			prevRow, had := prev.objRowOf(id)
			if row.flags&rowDeleted != 0 {
				if !had {
					continue // created and deleted within the delta
				}
				bObjKids.set(ord, nil, nil)
				bRelsOf.set(ord, nil, nil)
				if prevRow.parent == item.NoID {
					touchedNames[prevRow.nameSym] = true
				} else {
					touchedParents[prevRow.parent] = true
				}
				continue
			}
			if !had {
				// The new occupant owns its ordinal's adjacency entries now.
				bObjKids.share(ord, cs.objKids)
				bRelsOf.share(ord, cs.relsOfA)
				if row.parent == item.NoID {
					touchedNames[row.nameSym] = true
				} else {
					touchedParents[row.parent] = true
				}
			}

		case tag.Valid(): // relationship
			ord := int(tag.Ord())
			row := cs.relRows.at(ord)
			bOrds.set(int(id), tag)
			bRelRows.set(ord, row)
			_, had := prev.relRowOf(id)
			if row.flags&rowDeleted != 0 {
				if !had {
					continue
				}
				bRelKids.set(ord, nil, nil) // attribute sub-objects die with it
				for _, e := range row.ends {
					touchedRelsOf[e.Object] = true
				}
				continue
			}
			if !had {
				bRelKids.share(ord, cs.relKids)
				for _, e := range row.ends {
					touchedRelsOf[e.Object] = true
				}
			}

		default:
			// The item vanished from the live store entirely (physically
			// purged after its deletion was already frozen, or created and
			// rolled back within the delta). Clear the frozen tag and hide a
			// prev entry defensively if one survives.
			bOrds.set(int(id), 0)
			if prevRow, had := prev.objRowOf(id); had {
				oldTag := prev.ords.at(int(id))
				bObjKids.set(int(oldTag.Ord()), nil, nil)
				bRelsOf.set(int(oldTag.Ord()), nil, nil)
				if prevRow.parent == item.NoID {
					touchedNames[prevRow.nameSym] = true
				} else {
					touchedParents[prevRow.parent] = true
				}
			} else if prevRow, had := prev.relRowOf(id); had {
				oldTag := prev.ords.at(int(id))
				bRelKids.set(int(oldTag.Ord()), nil, nil)
				for _, e := range prevRow.ends {
					touchedRelsOf[e.Object] = true
				}
			}
		}
	}

	// Refresh the touched adjacency and name entries from the live state —
	// shared, kid lists and relationship lists are immutable values.
	for parent := range touchedParents {
		tag := cs.ords.at(int(parent))
		if !tag.Valid() {
			continue // parent vanished; its entries were tombstoned above
		}
		if tag.Kind() == item.KindObject {
			bObjKids.share(int(tag.Ord()), cs.objKids)
		} else {
			bRelKids.share(int(tag.Ord()), cs.relKids)
		}
	}
	for obj := range touchedRelsOf {
		if ord, ok := cs.objOrd(obj); ok {
			bRelsOf.share(ord, cs.relsOfA)
		}
	}
	for sym := range touchedNames {
		bNames.set(int(sym), cs.names.at(int(sym)))
	}

	f := &colFrozen{
		sch:      sch,
		dec:      cs.colDecoder.snapshot(),
		ords:     bOrds.done(),
		objRows:  bObjRows.done(),
		relRows:  bRelRows.done(),
		objKidsF: bObjKids.done(),
		relKidsF: bRelKids.done(),
		relsOfF:  bRelsOf.done(),
		nameToID: bNames.done(),
	}
	cs.patchIndexes(f, prev, dirty)
	return f
}

// fullFreeze builds a deep, share-nothing generation from the live state:
// the differential rebuild path (FrozenViewRebuild).
func (cs *colStore) fullFreeze(sch *schema.Schema) *colFrozen {
	cs.gen++
	gen := cs.gen
	f := &colFrozen{sch: sch, dec: cs.colDecoder.snapshot()}

	ords := make([]item.TaggedOrd, cs.ords.size())
	for i := range ords {
		ords[i] = cs.ords.at(i)
	}
	f.ords = newVerArr(ords, gen)

	objRows := make([]objRow, cs.objLen)
	for ord := range objRows {
		objRows[ord] = cs.objRows.at(ord)
	}
	f.objRows = newVerArr(objRows, gen)
	f.objKidsF = packAdj(gen, cs.objLen, cs.objKids.at)
	f.relsOfF = packAdj(gen, cs.objLen, cs.relsOfA.at)

	relRows := make([]relRow, cs.relLen)
	for ord := range relRows {
		relRows[ord] = cs.relRows.at(ord)
	}
	f.relRows = newVerArr(relRows, gen)
	f.relKidsF = packAdj(gen, cs.relLen, cs.relKids.at)

	names := make([]item.ID, cs.names.size())
	for i := range names {
		names[i] = cs.names.at(i)
	}
	f.nameToID = newVerArr(names, gen)

	cs.scanIndexes(f)
	return f
}

// ---- item.View ----

func (f *colFrozen) Schema() *schema.Schema { return f.sch }

// objRowOf resolves id to its frozen row, filtering ordinal holes (row.id
// mismatch) and deleted items.
func (f *colFrozen) objRowOf(id item.ID) (objRow, bool) {
	if row := f.liveObjRow(id); row != nil {
		return *row, true
	}
	return objRow{}, false
}

// liveObjRow is objRowOf without the copy: the row in place in the sealed
// array, or nil.
func (f *colFrozen) liveObjRow(id item.ID) *objRow {
	tag := f.ords.at(int(id))
	if !tag.Valid() || tag.Kind() != item.KindObject {
		return nil
	}
	row := f.objRows.ptr(int(tag.Ord()))
	if row == nil || row.id != id || row.flags&rowDeleted != 0 {
		return nil
	}
	return row
}

func (f *colFrozen) relRowOf(id item.ID) (relRow, bool) {
	tag := f.ords.at(int(id))
	if !tag.Valid() || tag.Kind() != item.KindRelationship {
		return relRow{}, false
	}
	row := f.relRows.at(int(tag.Ord()))
	if row.id != id || row.flags&rowDeleted != 0 {
		return relRow{}, false
	}
	return row, true
}

func (f *colFrozen) Object(id item.ID) (item.Object, bool) {
	row, ok := f.objRowOf(id)
	if !ok {
		return item.Object{}, false
	}
	return f.dec.decodeObj(&row), true
}

// Relationship returns a value whose Ends slice is immutable shared data.
func (f *colFrozen) Relationship(id item.ID) (item.Relationship, bool) {
	row, ok := f.relRowOf(id)
	if !ok {
		return item.Relationship{}, false
	}
	return f.dec.decodeRel(&row), true
}

// ObjectByName resolves a name through the frozen point-lookup table: one
// hash and an expected single probe, fully lock-free, then the frozen name
// binding. The table may hold symbols of unbound (deleted or staged)
// names — nameToID decides liveness.
func (f *colFrozen) ObjectByName(name string) (item.ID, bool) {
	if len(f.nameHash) == 0 {
		return item.NoID, false
	}
	mask := uint64(len(f.nameHash) - 1)
	h := maphash.String(nameHashSeed, name) & mask
	sym := item.NoSym
	for {
		s := f.nameHash[h]
		if s == item.NoSym {
			return item.NoID, false
		}
		if f.nameStrs[s] == name {
			sym = s
			break
		}
		h = (h + 1) & mask
	}
	id := f.nameToID.at(int(sym))
	if id == item.NoID {
		return item.NoID, false
	}
	return id, true
}

func (f *colFrozen) kidsOf(parent item.ID) ([]item.ID, []kidRef) {
	tag := f.ords.at(int(parent))
	if !tag.Valid() {
		return nil, nil
	}
	if tag.Kind() == item.KindObject {
		return f.objKidsF.at(int(tag.Ord()))
	}
	return f.relKidsF.at(int(tag.Ord()))
}

// Children returns shared immutable slices: a parent's whole kid list for
// the empty role, one role's run of it otherwise.
func (f *colFrozen) Children(parent item.ID, role string) []item.ID {
	ids, refs := f.kidsOf(parent)
	if ids == nil || role == "" {
		return ids
	}
	sym, ok := f.dec.schemaSyms.Lookup(role)
	if !ok {
		return nil
	}
	return roleKids(ids, refs, sym)
}

func (f *colFrozen) RelationshipsOf(obj item.ID) []item.ID {
	tag := f.ords.at(int(obj))
	if !tag.Valid() || tag.Kind() != item.KindObject {
		return nil
	}
	ids, _ := f.relsOfF.at(int(tag.Ord()))
	return ids
}

// Objects returns the live objects, ascending, as a shared immutable slice
// flattened once per generation that changed them.
func (f *colFrozen) Objects() []item.ID { return f.objIDs.Slice() }

// Relationships returns the live relationships like Objects.
func (f *colFrozen) Relationships() []item.ID { return f.relIDs.Slice() }

// ---- item.IndexedView / item.InheritsLister ----

// ObjectsOfClass implements item.IndexedView over the class index: live
// objects whose exact class has the given qualified name, ascending, as a
// shared immutable slice.
func (f *colFrozen) ObjectsOfClass(qualified string) ([]item.ID, bool) {
	return f.classRun(qualified).Slice(), true
}

// CountOfClass implements item.ClassCounter off the class run's length,
// without flattening it.
func (f *colFrozen) CountOfClass(qualified string) (int, bool) {
	return f.classRun(qualified).Len(), true
}

// classRun returns the extent of a class; nil, the empty run, when the
// class has no live objects.
func (f *colFrozen) classRun(qualified string) *item.Run[item.ID] {
	sym, ok := f.dec.schemaSyms.Lookup(qualified)
	if !ok || int(sym) >= len(f.byClass) {
		return nil
	}
	return f.byClass[sym]
}

// AttrIndex implements item.AttrIndexedView over the per-generation
// attribute indexes.
func (f *colFrozen) AttrIndex(key item.AttrKey) (*item.AttrIdx, bool) {
	x, ok := f.attrs[key]
	return x, ok
}

// EstNamePrefix implements item.NamePrefixView: the width of the ordered
// name index window starting with prefix — an upper bound, since unbound
// (deleted or staged) names stay in the index.
func (f *colFrozen) EstNamePrefix(prefix string) (int, bool) {
	lo, hi := f.namePrefixRange(prefix)
	return hi - lo, true
}

// ObjectsWithNamePrefix implements item.NamePrefixView: the bound objects
// whose name starts with prefix, ascending by ID.
func (f *colFrozen) ObjectsWithNamePrefix(prefix string) ([]item.ID, bool) {
	lo, hi := f.namePrefixRange(prefix)
	ids := make([]item.ID, 0, hi-lo)
	for _, sym := range f.byName[lo:hi] {
		if id := f.nameToID.at(int(sym)); id != item.NoID {
			ids = append(ids, id)
		}
	}
	sortIDs(ids)
	return ids, true
}

// namePrefixRange binary-searches the ordered name index for the window of
// names starting with prefix (names sharing a prefix sort contiguously).
func (f *colFrozen) namePrefixRange(prefix string) (int, int) {
	lo := sort.Search(len(f.byName), func(i int) bool { return f.nameStrs[f.byName[i]] >= prefix })
	hi := lo + sort.Search(len(f.byName)-lo, func(i int) bool {
		return !strings.HasPrefix(f.nameStrs[f.byName[lo+i]], prefix)
	})
	return lo, hi
}

// InheritsRelationships implements item.InheritsLister: the live
// inherits-relationships, ascending, as a shared immutable slice.
func (f *colFrozen) InheritsRelationships() []item.ID { return f.inherits.Slice() }
