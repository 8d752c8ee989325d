package core

import (
	"errors"
	"fmt"

	"repro/internal/codec"
	"repro/internal/item"
	"repro/internal/value"
)

// Journal records: one compact binary record per committed mutation. The
// seed database appends them to the write-ahead log and replays them on
// open; followers apply the ones the primary ships. Records are only
// written after full validation, so replay re-runs no consistency rule; it
// checks only what it must to apply a record exactly, and undoably.

// Record type tags for engine mutations. Tags 16 and above are reserved for
// the database layer (version and schema operations).
const (
	RecCreateObject byte = 1
	RecCreateSub    byte = 2
	RecSetValue     byte = 3
	RecCreateRel    byte = 4
	RecInherit      byte = 5
	RecDelete       byte = 6
	RecReclassify   byte = 7
	RecSetPattern   byte = 8

	// RecDataMax is the highest record tag owned by the engine.
	RecDataMax byte = 15
)

// ErrBadRecord reports a malformed or unknown journal record.
var ErrBadRecord = errors.New("core: malformed journal record")

func (en *Engine) encCreateObject(o *item.Object) []byte {
	if en.journal == nil {
		return nil
	}
	e := codec.NewEncoder(nil)
	e.Byte(RecCreateObject)
	e.Uint64(uint64(o.ID))
	e.String(o.Class.QualifiedName())
	e.String(o.Name)
	e.Bool(o.Pattern)
	return e.Bytes()
}

func (en *Engine) encCreateSub(o *item.Object) []byte {
	if en.journal == nil {
		return nil
	}
	e := codec.NewEncoder(nil)
	e.Byte(RecCreateSub)
	e.Uint64(uint64(o.ID))
	e.Uint64(uint64(o.Parent))
	e.String(o.Role)
	e.Int(o.Index)
	return e.Bytes()
}

func (en *Engine) encSetValue(id item.ID, v value.Value) []byte {
	if en.journal == nil {
		return nil
	}
	e := codec.NewEncoder(nil)
	e.Byte(RecSetValue)
	e.Uint64(uint64(id))
	item.EncodeValue(e, item.Inline, v)
	return e.Bytes()
}

func (en *Engine) encCreateRel(r *item.Relationship) []byte {
	if en.journal == nil {
		return nil
	}
	e := codec.NewEncoder(nil)
	e.Byte(RecCreateRel)
	e.Uint64(uint64(r.ID))
	e.String(r.Assoc.Name())
	item.EncodeEnds(e, item.Inline, r.Ends)
	return e.Bytes()
}

func (en *Engine) encInherit(r *item.Relationship) []byte {
	if en.journal == nil {
		return nil
	}
	e := codec.NewEncoder(nil)
	e.Byte(RecInherit)
	e.Uint64(uint64(r.ID))
	e.Uint64(uint64(r.End(item.InheritsPatternRole)))
	e.Uint64(uint64(r.End(item.InheritsInheritorRole)))
	return e.Bytes()
}

func (en *Engine) encDelete(id item.ID) []byte {
	if en.journal == nil {
		return nil
	}
	e := codec.NewEncoder(nil)
	e.Byte(RecDelete)
	e.Uint64(uint64(id))
	return e.Bytes()
}

func (en *Engine) encReclassify(id item.ID, newName string) []byte {
	if en.journal == nil {
		return nil
	}
	e := codec.NewEncoder(nil)
	e.Byte(RecReclassify)
	e.Uint64(uint64(id))
	e.String(newName)
	return e.Bytes()
}

func (en *Engine) encSetPattern(id item.ID, pat bool) []byte {
	if en.journal == nil {
		return nil
	}
	e := codec.NewEncoder(nil)
	e.Byte(RecSetPattern)
	e.Uint64(uint64(id))
	e.Bool(pat)
	return e.Bytes()
}

// ApplyRecords applies one committed batch of engine journal records (one
// write's or one transaction's) as one engine transaction, without
// consistency checks, attached procedures or journaling. Every step records
// its undo, so a record that is malformed or names what the engine does not
// hold (ErrBadRecord) rolls the whole batch back: a refused batch changes
// nothing. It is refused with ErrTxState while a transaction is open.
func (en *Engine) ApplyRecords(batch [][]byte) (err error) {
	if en.curTx != nil || len(en.open) > 0 {
		return fmt.Errorf("%w: journal batch applied while a transaction is open", ErrTxState)
	}
	defer en.endOp(en.beginOp(), nil, &err)
	for _, rec := range batch {
		if err := en.applyRecord(rec); err != nil {
			return err
		}
	}
	return nil
}

// applyRecord applies one engine journal record inside ApplyRecords. Each
// record is decoded whole and checked before it touches the engine.
func (en *Engine) applyRecord(payload []byte) error {
	if len(payload) == 0 {
		return ErrBadRecord
	}
	d := codec.NewDecoder(payload[1:])
	switch payload[0] {
	case RecCreateObject:
		id, clsName, name, pat := item.ID(d.Uint64()), d.String(), d.String(), d.Bool()
		cls, err := en.sch.Class(clsName)
		if _, taken := en.st.lookupName(name); taken && err == nil {
			err = fmt.Errorf("%w: %q", ErrDuplicateName, name)
		}
		if err := recordCheck(d, err, en.freshID(id)); err != nil {
			return err
		}
		en.insertObjectRaw(&item.Object{ID: id, Class: cls, Name: name, Index: item.NoIndex, Pattern: pat})

	case RecCreateSub:
		id, parent, role, index := item.ID(d.Uint64()), item.ID(d.Uint64()), d.String(), d.Int()
		cls, parentPattern, err := en.resolveSubObjectClass(parent, role)
		if err := recordCheck(d, err, en.freshID(id)); err != nil {
			return err
		}
		en.insertObjectRaw(&item.Object{
			ID: id, Class: cls, Parent: parent,
			Role: role, Index: index, Pattern: parentPattern,
		})
		en.bumpIndexRaw(parent, role, index)

	case RecSetValue:
		id, v := item.ID(d.Uint64()), item.DecodeValue(d, item.Inline)
		o, err := en.Object(id)
		if err := recordCheck(d, err); err != nil {
			return err
		}
		en.setValueRaw(id, o.Value, v)

	case RecCreateRel:
		id, assocName, ends := item.ID(d.Uint64()), d.String(), item.DecodeEnds(d, item.Inline)
		assoc, err := en.sch.Association(assocName)
		return en.insertReplayedRel(d, err, &item.Relationship{ID: id, Assoc: assoc, Ends: ends})

	case RecInherit:
		id, pat, inh := item.ID(d.Uint64()), item.ID(d.Uint64()), item.ID(d.Uint64())
		return en.insertReplayedRel(d, nil, &item.Relationship{ID: id, Inherits: true, Ends: []item.End{
			{Role: item.InheritsInheritorRole, Object: inh},
			{Role: item.InheritsPatternRole, Object: pat},
		}})

	case RecDelete:
		id := item.ID(d.Uint64())
		if err := recordCheck(d, en.known(id)); err != nil {
			return err
		}
		for _, vid := range en.deletionSet(id) {
			en.deleteRaw(vid)
		}

	case RecReclassify:
		id, newName := item.ID(d.Uint64()), d.String()
		o, isObj := en.st.object(id)
		r, isRel := en.st.rel(id)
		switch {
		case isObj:
			cls, err := en.sch.Class(newName)
			if err := recordCheck(d, err); err != nil {
				return err
			}
			en.setClassRaw(id, o.Class, cls)
		case isRel && !r.Inherits:
			assoc, err := en.sch.Association(newName)
			if err := recordCheck(d, err); err != nil {
				return err
			}
			en.setAssocRaw(id, r.Assoc, assoc)
		default:
			return recordCheck(d, fmt.Errorf("%w: reclassify item %d", ErrUnknownItem, id))
		}

	case RecSetPattern:
		id, pat := item.ID(d.Uint64()), d.Bool()
		if err := recordCheck(d, en.known(id)); err != nil {
			return err
		}
		en.setPatternSubtree(id, pat)

	default:
		return fmt.Errorf("%w: tag %d", ErrBadRecord, payload[0])
	}
	return nil
}

// insertReplayedRel inserts a replayed relationship once its record decoded
// whole, its association resolved (lookup), its ID is fresh and every end
// names a known object. Like CreateRelationship, it is a pattern
// relationship when an end is a live pattern.
func (en *Engine) insertReplayedRel(d *codec.Decoder, lookup error, r *item.Relationship) error {
	for _, e := range r.Ends {
		if k, ok := en.st.kindOf(e.Object); (!ok || k != item.KindObject) && lookup == nil {
			lookup = fmt.Errorf("%w: end object %d", ErrUnknownItem, e.Object)
		}
	}
	if err := recordCheck(d, lookup, en.freshID(r.ID)); err != nil {
		return err
	}
	r.SortEnds()
	r.Pattern = !r.Inherits && en.endsPattern(r.Ends)
	en.insertRelRaw(r)
	return nil
}

// recordCheck reports a record's decode failure or else the first failed
// check, as ErrBadRecord. Checks have no side effects, so they may run on
// the zero values a failed decode returns.
func recordCheck(d *codec.Decoder, checks ...error) error {
	if err := RecordErr(d); err != nil {
		return err
	}
	for _, err := range checks {
		if err != nil {
			return fmt.Errorf("%w: %w", ErrBadRecord, err)
		}
	}
	return nil
}

// freshID refuses the ID of a replayed creation that is NoID or held by
// the engine. An ID past the allocation counter is fresh: a log skips the
// IDs of creations that were refused or rolled back, however many.
func (en *Engine) freshID(id item.ID) error {
	if id == item.NoID || en.Contains(id) {
		return fmt.Errorf("item %d is not a fresh ID", id)
	}
	return nil
}

// known refuses an ID the engine does not hold.
func (en *Engine) known(id item.ID) error {
	if !en.Contains(id) {
		return fmt.Errorf("%w: item %d", ErrUnknownItem, id)
	}
	return nil
}

// RecordErr reports a journal record's decode failure as ErrBadRecord,
// keeping the decoder's own error (a short buffer, a bad count) in the
// chain. Every record decoder — the engine's and the database's — checks
// it once, before it acts.
func RecordErr(d *codec.Decoder) error {
	if err := d.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrBadRecord, err)
	}
	return nil
}

// bumpID raises the committed ID mark, and the allocation counter with it,
// past a committed item's ID.
func (en *Engine) bumpID(id item.ID) {
	if id >= en.idMark {
		en.idMark = id + 1
	}
	if en.idMark > en.nextID {
		en.nextID = en.idMark
	}
}

// bumpIndex keeps sub-object index allocation above a restored or replayed
// sub-object's index.
func (en *Engine) bumpIndex(parent item.ID, role string, index int) {
	if index == item.NoIndex {
		return
	}
	byRole := en.indexCtr[parent]
	if byRole == nil {
		byRole = make(map[string]int)
		en.indexCtr[parent] = byRole
	}
	if index >= byRole[role] {
		byRole[role] = index + 1
	}
}
