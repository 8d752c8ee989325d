package core

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/item"
	"repro/internal/schema"
	"repro/internal/value"
)

// colStore is the engine's item store: one flat row per item in dense
// per-kind ordinal order, strings interned into append-only symbol tables,
// and adjacency kept as immutable per-ordinal lists — no per-item pointer,
// no map buckets, no duplicated strings (DESIGN.md section 11).
//
// The store is externally synchronized exactly like the engine. Accessors
// that return slices (children, childrenAll, relsOf, and the Ends inside
// rel results) hand out stable snapshots: the caller may retain them across
// subsequent mutations and must not modify them.
//
// The live state is not a separate copy of the last frozen generation: it is
// a set of persistent verArr builders (verarr.go) continuing the frozen
// lineage. Freezing seals the builders — O(touched chunks), no row copying —
// and restarts them on a fresh generation over the sealed arrays, so live
// and frozen state share every untouched 1024-row chunk structurally.
// Adjacency lives in packed adjArrs (adjarr.go) whose lists are immutable
// once stored: every mutation stores a fresh list for its parent, which is
// what lets generations share them instead of deep-copying at freeze time.
//
// Ordinals are append-only: an item keeps its ordinal for life, undoing an
// insert pops the tail row, and a purge leaves a hole (row.id == NoID) that
// is never reused — so a row ordinal means the same item in every frozen
// generation, which is what lets generations share chunks, and what lets a
// kid list name its children by ordinal.
type colStore struct {
	colDecoder

	gen uint64 // generation owning the builders' chunks (monotonic)

	ords    *verBuilder[item.TaggedOrd] // by ID: tagged ordinal
	objRows *verBuilder[objRow]         // by object ordinal; id == NoID marks a purged hole
	relRows *verBuilder[relRow]         // by relationship ordinal
	objKids *adjBuilder[kidRef]         // by object ordinal: live children, role-name order
	relKids *adjBuilder[kidRef]         // by relationship ordinal (attribute sub-objects)
	relsOfA *adjBuilder[struct{}]       // by object ordinal: live relationships, ID order
	names   *verBuilder[item.ID]        // by name symbol; NoID = name not bound

	objLen, relLen int // row array lengths (holes included)
	nObjs, nRels   int // known items (live + deleted)

	// sealed means the last freeze handed the builders' chunks to a frozen
	// generation. Freezes run under the database read lock, concurrently
	// with other readers, so they must not touch live state beyond this
	// flag: the next mutation — always under the exclusive lock — restarts
	// the builders (reopen) before writing.
	sealed     bool
	lastFrozen *colFrozen // previous frozen generation (COW base)

	// attrSpecs are the engine's attribute index registrations; the engine
	// invalidates the frozen base whenever it replaces them, so the next
	// freeze builds them.
	attrSpecs []item.AttrSpec
}

// reopen restarts the builders on a fresh generation after a seal, so
// mutations clone chunks instead of corrupting the frozen generation that
// owns them. Called at the top of every mutator, under the exclusive lock.
func (cs *colStore) reopen() {
	if !cs.sealed {
		return
	}
	cs.sealed = false
	cs.gen++
	gen := cs.gen
	cs.ords = cs.ords.done().builder(gen)
	cs.objRows = cs.objRows.done().builder(gen)
	cs.relRows = cs.relRows.done().builder(gen)
	cs.objKids = cs.objKids.done().builder(gen)
	cs.relKids = cs.relKids.done().builder(gen)
	cs.relsOfA = cs.relsOfA.done().builder(gen)
	cs.names = cs.names.done().builder(gen)
}

// Row flag bits.
const (
	rowDeleted  uint8 = 1 << 0
	rowPattern  uint8 = 1 << 1
	rowInherits uint8 = 1 << 2 // relationships only
	rowLongStr  uint8 = 1 << 3 // objects: string value stored in valStr
)

// valInternMax bounds the string values worth interning. Values above it go
// into the row's valStr field directly: interning is append-only, so a
// workload churning unique long strings would leak them into the table (a
// Restore rebuilds the store and drops the table, which bounds the leak to
// one store lifetime).
const valInternMax = 32

// objRow is the columnar state of one object. Strings live in the symbol
// tables; the value payload is packed into valBits + valKind (with valStr
// for long string values).
type objRow struct {
	id       item.ID
	parent   item.ID
	valBits  uint64
	valStr   string
	classSym item.Sym // qualified class name in schemaSyms
	nameSym  item.Sym // root name in nameSyms
	roleSym  item.Sym // containment role in schemaSyms
	index    int32
	valKind  uint8
	flags    uint8
}

// relRow is the columnar state of one relationship. Ends is shared immutable
// data: never mutated after insert, so rows, frozen generations, and
// returned item.Relationship values all alias one slice.
type relRow struct {
	id       item.ID
	ends     []item.End
	assocSym item.Sym // association name in schemaSyms; NoSym for inherits
	flags    uint8
}

// colDecoder turns rows back into item values: the symbol tables plus the
// dense symbol->schema-element side tables. The live store owns a mutable
// copy; every frozen generation snapshots the side tables (the symbol
// tables themselves are append-only and safely shared — item.SymTab
// publishes lock-free).
type colDecoder struct {
	schemaSyms *item.SymTab // class qualified names, association names, role names
	nameSyms   *item.SymTab // root object names
	valSyms    *item.SymTab // short string values
	classBySym []*schema.Class
	assocBySym []*schema.Association
}

// newColStore creates an empty store carrying the engine's attribute index
// registrations.
func newColStore(attrSpecs []item.AttrSpec) *colStore {
	cs := &colStore{
		colDecoder: colDecoder{
			schemaSyms: item.NewSymTab(),
			nameSyms:   item.NewSymTab(),
			valSyms:    item.NewSymTab(),
		},
		gen:       1,
		attrSpecs: attrSpecs,
	}
	cs.ords = verArr[item.TaggedOrd]{}.builder(1)
	cs.objRows = verArr[objRow]{}.builder(1)
	cs.relRows = verArr[relRow]{}.builder(1)
	cs.objKids = adjArr[kidRef]{}.builder(1)
	cs.relKids = adjArr[kidRef]{}.builder(1)
	cs.relsOfA = adjArr[struct{}]{}.builder(1)
	cs.names = verArr[item.ID]{}.builder(1)
	return cs
}

func (cs *colStore) internClass(c *schema.Class) item.Sym {
	sym := cs.schemaSyms.Intern(c.QualifiedName())
	for int(sym) >= len(cs.classBySym) {
		cs.classBySym = append(cs.classBySym, nil)
	}
	cs.classBySym[sym] = c
	return sym
}

func (cs *colStore) internAssoc(a *schema.Association) item.Sym {
	sym := cs.schemaSyms.Intern(a.Name())
	for int(sym) >= len(cs.assocBySym) {
		cs.assocBySym = append(cs.assocBySym, nil)
	}
	cs.assocBySym[sym] = a
	return sym
}

// snapshot copies the side tables for a frozen generation.
func (d *colDecoder) snapshot() colDecoder {
	s := *d
	s.classBySym = append([]*schema.Class(nil), d.classBySym...)
	s.assocBySym = append([]*schema.Association(nil), d.assocBySym...)
	return s
}

// ---- row encoding ----

func (cs *colStore) encodeObj(row *objRow, o *item.Object) {
	row.id = o.ID
	row.parent = o.Parent
	row.classSym = cs.internClass(o.Class)
	row.nameSym = cs.nameSyms.Intern(o.Name)
	row.roleSym = cs.schemaSyms.Intern(o.Role)
	row.index = int32(o.Index)
	row.flags = 0
	if o.Pattern {
		row.flags |= rowPattern
	}
	if o.Deleted {
		row.flags |= rowDeleted
	}
	cs.encodeVal(row, o.Value)
}

func (cs *colStore) encodeVal(row *objRow, v value.Value) {
	row.flags &^= rowLongStr
	row.valKind = uint8(v.Kind())
	row.valBits = 0
	row.valStr = ""
	switch v.Kind() {
	case value.KindString:
		if s := v.Str(); len(s) <= valInternMax {
			row.valBits = uint64(cs.valSyms.Intern(s))
		} else {
			row.valStr = s
			row.flags |= rowLongStr
		}
	case value.KindInteger:
		row.valBits = uint64(v.Int())
	case value.KindReal:
		row.valBits = math.Float64bits(v.Real())
	case value.KindBoolean:
		if v.Bool() {
			row.valBits = 1
		}
	case value.KindDate:
		// NewDate canonicalizes to midnight UTC, so whole seconds round-trip
		// the time.Time representation exactly.
		row.valBits = uint64(v.Date().Unix())
	}
}

func (d *colDecoder) decodeVal(row *objRow) value.Value {
	switch value.Kind(row.valKind) {
	case value.KindString:
		return value.NewString(d.rowStr(row))
	case value.KindInteger:
		return value.NewInteger(int64(row.valBits))
	case value.KindReal:
		return value.NewReal(math.Float64frombits(row.valBits))
	case value.KindBoolean:
		return value.NewBoolean(row.valBits != 0)
	case value.KindDate:
		return value.DateOfUnix(int64(row.valBits))
	}
	return value.Undefined
}

// rowStr returns a STRING row's string in place: the interned symbol's or,
// above valInternMax, the row's own.
func (d *colDecoder) rowStr(row *objRow) string {
	if row.flags&rowLongStr != 0 {
		return row.valStr
	}
	return d.valSyms.Str(item.Sym(row.valBits))
}

// rowTest compiles `v op c`, for the value v a row encodes, into a test
// that agrees with op.Holds(decodeVal(row), c) on every row. Every test
// requires the row's kind to be c's, which rejects kind mismatches. The
// kinds whose decode costs — a DATE's calendar, a string — are tested on
// the encoding itself: INTEGER and DATE compare valBits as int64, STRING
// compares the interned or long string in place, and what op accepts of
// the three-way result is value.Op.OfOrder's. REAL and BOOLEAN decode for
// free and go through Holds itself.
func (d *colDecoder) rowTest(op value.Op, c value.Value) func(*objRow) bool {
	kind := uint8(c.Kind())
	accepts := [3]bool{op.OfOrder(-1), op.OfOrder(0), op.OfOrder(1)} // by three-way result + 1
	switch c.Kind() {
	case value.KindInteger, value.KindDate:
		// A date is stored as the seconds of its canonical midnight, so the
		// seconds order is the date order and equal seconds the same date.
		b := c.Int()
		if c.Kind() == value.KindDate {
			b = c.Date().Unix()
		}
		return func(r *objRow) bool { return r.valKind == kind && accepts[cmp.Compare(int64(r.valBits), b)+1] }
	case value.KindString:
		b := c.Str()
		if op == value.Contains {
			return func(r *objRow) bool { return r.valKind == kind && strings.Contains(d.rowStr(r), b) }
		}
		return func(r *objRow) bool { return r.valKind == kind && accepts[strings.Compare(d.rowStr(r), b)+1] }
	}
	return func(r *objRow) bool { return r.valKind == kind && op.Holds(d.decodeVal(r), c) }
}

func (d *colDecoder) decodeObj(row *objRow) item.Object {
	return item.Object{
		ID:      row.id,
		Class:   d.classBySym[row.classSym],
		Name:    d.nameSyms.Str(row.nameSym),
		Parent:  row.parent,
		Role:    d.schemaSyms.Str(row.roleSym),
		Index:   int(row.index),
		Value:   d.decodeVal(row),
		Pattern: row.flags&rowPattern != 0,
		Deleted: row.flags&rowDeleted != 0,
	}
}

func (d *colDecoder) decodeRel(row *relRow) item.Relationship {
	r := item.Relationship{
		ID:       row.id,
		Ends:     row.ends, // shared immutable
		Inherits: row.flags&rowInherits != 0,
		Pattern:  row.flags&rowPattern != 0,
		Deleted:  row.flags&rowDeleted != 0,
	}
	if !r.Inherits {
		r.Assoc = d.assocBySym[row.assocSym]
	}
	return r
}

// ---- item state (deleted items included; the engine filters) ----

// objOrd resolves an ID to its object ordinal.
func (cs *colStore) objOrd(id item.ID) (int, bool) {
	tag := cs.ords.at(int(id))
	if !tag.Valid() || tag.Kind() != item.KindObject {
		return 0, false
	}
	return int(tag.Ord()), true
}

// relOrd resolves an ID to its relationship ordinal.
func (cs *colStore) relOrd(id item.ID) (int, bool) {
	tag := cs.ords.at(int(id))
	if !tag.Valid() || tag.Kind() != item.KindRelationship {
		return 0, false
	}
	return int(tag.Ord()), true
}

func (cs *colStore) object(id item.ID) (item.Object, bool) {
	ord, ok := cs.objOrd(id)
	if !ok {
		return item.Object{}, false
	}
	row := cs.objRows.at(ord)
	return cs.decodeObj(&row), true
}

func (cs *colStore) rel(id item.ID) (item.Relationship, bool) {
	ord, ok := cs.relOrd(id)
	if !ok {
		return item.Relationship{}, false
	}
	row := cs.relRows.at(ord)
	return cs.decodeRel(&row), true
}

func (cs *colStore) kindOf(id item.ID) (item.Kind, bool) {
	tag := cs.ords.at(int(id))
	if !tag.Valid() {
		return 0, false
	}
	return tag.Kind(), true
}

func (cs *colStore) objectIDs() []item.ID {
	out := make([]item.ID, 0, cs.nObjs)
	for ord := 0; ord < cs.objLen; ord++ {
		if row := cs.objRows.at(ord); row.id != item.NoID {
			out = append(out, row.id)
		}
	}
	return out
}

func (cs *colStore) relIDs() []item.ID {
	out := make([]item.ID, 0, cs.nRels)
	for ord := 0; ord < cs.relLen; ord++ {
		if row := cs.relRows.at(ord); row.id != item.NoID {
			out = append(out, row.id)
		}
	}
	return out
}

func (cs *colStore) visibleObjects() []item.ID {
	out := make([]item.ID, 0, cs.nObjs)
	for ord := 0; ord < cs.objLen; ord++ {
		if row := cs.objRows.at(ord); row.id != item.NoID && row.flags&rowDeleted == 0 {
			out = append(out, row.id)
		}
	}
	sortIDs(out)
	return out
}

func (cs *colStore) visibleRels() []item.ID {
	out := make([]item.ID, 0, cs.nRels)
	for ord := 0; ord < cs.relLen; ord++ {
		if row := cs.relRows.at(ord); row.id != item.NoID && row.flags&rowDeleted == 0 {
			out = append(out, row.id)
		}
	}
	sortIDs(out)
	return out
}

// ---- physical row mutation ----

func (cs *colStore) insertObject(o *item.Object) {
	cs.reopen()
	ord := cs.objLen
	var row objRow
	cs.encodeObj(&row, o)
	cs.objRows.set(ord, row)
	cs.ords.set(int(o.ID), item.TagOrd(item.KindObject, item.Ord(ord)))
	cs.objLen++
	cs.nObjs++
}

func (cs *colStore) removeObject(id item.ID) {
	cs.reopen()
	ord, ok := cs.objOrd(id)
	if !ok {
		return
	}
	cs.ords.set(int(id), 0)
	cs.objRows.set(ord, objRow{})
	cs.objKids.set(ord, nil, nil)
	cs.relsOfA.set(ord, nil, nil)
	cs.nObjs--
	if ord == cs.objLen-1 {
		cs.objLen-- // undo of an insert pops the tail; the slot can be reused
	}
}

func (cs *colStore) insertRel(r *item.Relationship) {
	cs.reopen()
	ord := cs.relLen
	row := relRow{id: r.ID, ends: r.Ends}
	if r.Inherits {
		row.flags |= rowInherits
	} else {
		row.assocSym = cs.internAssoc(r.Assoc)
	}
	if r.Pattern {
		row.flags |= rowPattern
	}
	if r.Deleted {
		row.flags |= rowDeleted
	}
	cs.relRows.set(ord, row)
	cs.ords.set(int(r.ID), item.TagOrd(item.KindRelationship, item.Ord(ord)))
	cs.relLen++
	cs.nRels++
}

func (cs *colStore) removeRel(id item.ID) {
	cs.reopen()
	ord, ok := cs.relOrd(id)
	if !ok {
		return
	}
	cs.ords.set(int(id), 0)
	cs.relRows.set(ord, relRow{})
	cs.relKids.set(ord, nil, nil)
	cs.nRels--
	if ord == cs.relLen-1 {
		cs.relLen--
	}
}

func (cs *colStore) setValue(id item.ID, v value.Value) {
	cs.reopen()
	if ord, ok := cs.objOrd(id); ok {
		row := cs.objRows.at(ord)
		cs.encodeVal(&row, v)
		cs.objRows.set(ord, row)
	}
}

func (cs *colStore) setClass(id item.ID, c *schema.Class) {
	cs.reopen()
	if ord, ok := cs.objOrd(id); ok {
		row := cs.objRows.at(ord)
		row.classSym = cs.internClass(c)
		cs.objRows.set(ord, row)
	}
}

func (cs *colStore) setAssoc(id item.ID, a *schema.Association) {
	cs.reopen()
	if ord, ok := cs.relOrd(id); ok {
		row := cs.relRows.at(ord)
		row.assocSym = cs.internAssoc(a)
		cs.relRows.set(ord, row)
	}
}

func (cs *colStore) setPattern(id item.ID, pat bool) {
	cs.reopen()
	flip := func(flags uint8) uint8 {
		if pat {
			return flags | rowPattern
		}
		return flags &^ rowPattern
	}
	tag := cs.ords.at(int(id))
	if !tag.Valid() {
		return
	}
	ord := int(tag.Ord())
	if tag.Kind() == item.KindObject {
		row := cs.objRows.at(ord)
		row.flags = flip(row.flags)
		cs.objRows.set(ord, row)
	} else {
		row := cs.relRows.at(ord)
		row.flags = flip(row.flags)
		cs.relRows.set(ord, row)
	}
}

func (cs *colStore) setDeleted(id item.ID, del bool) {
	cs.reopen()
	flip := func(flags uint8) uint8 {
		if del {
			return flags | rowDeleted
		}
		return flags &^ rowDeleted
	}
	tag := cs.ords.at(int(id))
	if !tag.Valid() {
		return
	}
	ord := int(tag.Ord())
	if tag.Kind() == item.KindObject {
		row := cs.objRows.at(ord)
		row.flags = flip(row.flags)
		cs.objRows.set(ord, row)
	} else {
		row := cs.relRows.at(ord)
		row.flags = flip(row.flags)
		cs.relRows.set(ord, row)
	}
}

// ---- name index ----

func (cs *colStore) lookupName(name string) (item.ID, bool) {
	sym, ok := cs.nameSyms.Lookup(name)
	if !ok {
		return item.NoID, false
	}
	id := cs.names.at(int(sym))
	if id == item.NoID {
		return item.NoID, false
	}
	return id, true
}

func (cs *colStore) setName(name string, id item.ID) {
	cs.reopen()
	cs.names.set(int(cs.nameSyms.Intern(name)), id)
}

func (cs *colStore) delName(name string) {
	cs.reopen()
	if sym, ok := cs.nameSyms.Lookup(name); ok {
		cs.names.set(int(sym), item.NoID)
	}
}

// ---- containment adjacency ----

// kidSlot returns the builder and ordinal holding the parent's kid list
// (objects and relationships both own sub-objects), or nil for unknown
// parents.
func (cs *colStore) kidSlot(parent item.ID) (*adjBuilder[kidRef], int) {
	tag := cs.ords.at(int(parent))
	if !tag.Valid() {
		return nil, 0
	}
	if tag.Kind() == item.KindObject {
		return cs.objKids, int(tag.Ord())
	}
	return cs.relKids, int(tag.Ord())
}

// roleKids returns the children in a kid list playing the role symbol:
// one contiguous run, since a kid list is kept in role-name order.
func roleKids(ids []item.ID, refs []kidRef, role item.Sym) []item.ID {
	lo := 0
	for lo < len(refs) && refs[lo].role != role {
		lo++
	}
	hi := lo
	for hi < len(refs) && refs[hi].role == role {
		hi++
	}
	if lo == hi {
		return nil
	}
	return ids[lo:hi:hi]
}

// children lists the live sub-objects of a parent in one role, index order.
//
//seedlint:frozen
func (cs *colStore) children(parent item.ID, role string) []item.ID {
	b, ord := cs.kidSlot(parent)
	if b == nil {
		return nil
	}
	ids, refs := b.at(ord)
	if ids == nil {
		return nil
	}
	sym, ok := cs.schemaSyms.Lookup(role)
	if !ok {
		return nil
	}
	return roleKids(ids, refs, sym)
}

// childrenAll lists all live sub-objects of a parent, role-name order and
// index order within a role.
//
//seedlint:frozen
func (cs *colStore) childrenAll(parent item.ID) []item.ID {
	b, ord := cs.kidSlot(parent)
	if b == nil {
		return nil
	}
	ids, _ := b.at(ord)
	return ids
}

// linkChild inserts a child into its parent's kid list, keeping role-name
// order and, within a role, the children's own positional index order.
// Siblings with equal indexes (index-less ones under a pattern, which
// cardinality checks exempt) order by ID, so the list is a function of the
// state, not of its history.
func (cs *colStore) linkChild(parent item.ID, role string, child item.ID, index int) {
	cs.reopen()
	b, pord := cs.kidSlot(parent)
	cord, ok := cs.objOrd(child)
	if b == nil || !ok {
		return
	}
	sym := cs.schemaSyms.Intern(role)
	ids, refs := b.at(pord)
	pos := sort.Search(len(ids), func(i int) bool {
		if r := refs[i]; r.role != sym {
			return cs.schemaSyms.Str(r.role) > role
		}
		x := int(chunkPtr(cs.objRows.chunks, int(refs[i].ord)).index)
		return x > index || x == index && ids[i] > child
	})
	ids, refs = inserted(ids, refs, pos, child, kidRef{ord: int32(cord), role: sym})
	b.set(pord, ids, refs)
}

func (cs *colStore) unlinkChild(parent item.ID, role string, child item.ID) {
	cs.reopen()
	b, pord := cs.kidSlot(parent)
	if b == nil {
		return
	}
	sym, ok := cs.schemaSyms.Lookup(role)
	if !ok {
		return
	}
	ids, refs := b.at(pord)
	for i, id := range ids {
		if id == child && refs[i].role == sym {
			ids, refs = removed(ids, refs, i)
			b.set(pord, ids, refs)
			return
		}
	}
}

// ---- relationship adjacency ----

// relsOf lists the live relationships of an object in ascending ID order.
//
//seedlint:frozen
func (cs *colStore) relsOf(obj item.ID) []item.ID {
	ord, ok := cs.objOrd(obj)
	if !ok {
		return nil
	}
	ids, _ := cs.relsOfA.at(ord)
	return ids
}

func (cs *colStore) linkRel(obj, rel item.ID) {
	cs.reopen()
	ord, ok := cs.objOrd(obj)
	if !ok {
		return // bogus end; the mutation validates and rolls back after linking
	}
	ids, refs := cs.relsOfA.at(ord)
	pos, found := slices.BinarySearch(ids, rel)
	if found {
		return // same object in several roles is linked once
	}
	ids, refs = inserted(ids, refs, pos, rel, struct{}{})
	cs.relsOfA.set(ord, ids, refs)
}

func (cs *colStore) unlinkRel(obj, rel item.ID) {
	cs.reopen()
	ord, ok := cs.objOrd(obj)
	if !ok {
		return
	}
	ids, refs := cs.relsOfA.at(ord)
	if i, found := slices.BinarySearch(ids, rel); found {
		ids, refs = removed(ids, refs, i)
		cs.relsOfA.set(ord, ids, refs)
	}
}
