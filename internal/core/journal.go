package core

import (
	"errors"
	"fmt"

	"repro/internal/item"
	"repro/internal/storage"
	"repro/internal/value"
)

// Journal records: one compact binary record per committed mutation. The
// seed database appends them to the write-ahead log and replays them on
// open. Records are only written after full validation, so replay applies
// them without re-checking.

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
	e := storage.NewEncoder(nil)
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
	e := storage.NewEncoder(nil)
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
	e := storage.NewEncoder(nil)
	e.Byte(RecSetValue)
	e.Uint64(uint64(id))
	item.EncodeValue(e, item.Inline, v)
	return e.Bytes()
}

func (en *Engine) encCreateRel(r *item.Relationship) []byte {
	if en.journal == nil {
		return nil
	}
	e := storage.NewEncoder(nil)
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
	e := storage.NewEncoder(nil)
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
	e := storage.NewEncoder(nil)
	e.Byte(RecDelete)
	e.Uint64(uint64(id))
	return e.Bytes()
}

func (en *Engine) encReclassify(id item.ID, newName string) []byte {
	if en.journal == nil {
		return nil
	}
	e := storage.NewEncoder(nil)
	e.Byte(RecReclassify)
	e.Uint64(uint64(id))
	e.String(newName)
	return e.Bytes()
}

func (en *Engine) encSetPattern(id item.ID, pat bool) []byte {
	if en.journal == nil {
		return nil
	}
	e := storage.NewEncoder(nil)
	e.Byte(RecSetPattern)
	e.Uint64(uint64(id))
	e.Bool(pat)
	return e.Bytes()
}

// BeginReplay switches the engine into replay mode: mutations apply without
// validation, without attached procedures, and without journaling.
func (en *Engine) BeginReplay() { en.replaying = true }

// EndReplay leaves replay mode.
func (en *Engine) EndReplay() { en.replaying = false }

// ApplyRecord applies one engine journal record during recovery. The engine
// must be in replay mode. Each record is decoded whole and checked once
// before it touches the engine: a malformed record (ErrBadRecord, wrapping
// the decoder's error) changes nothing.
func (en *Engine) ApplyRecord(payload []byte) error {
	if !en.replaying {
		return fmt.Errorf("%w: ApplyRecord outside replay mode", ErrTxState)
	}
	if len(payload) == 0 {
		return ErrBadRecord
	}
	d := storage.NewDecoder(payload[1:])
	switch payload[0] {
	case RecCreateObject:
		id, clsName, name, pat := item.ID(d.Uint64()), d.String(), d.String(), d.Bool()
		if err := RecordErr(d); err != nil {
			return err
		}
		cls, err := en.sch.Class(clsName)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrBadRecord, err)
		}
		o := &item.Object{ID: id, Class: cls, Name: name, Index: item.NoIndex, Pattern: pat}
		en.insertObjectRaw(o)
		en.bumpID(o.ID)
		return nil

	case RecCreateSub:
		id, parent, role, index := item.ID(d.Uint64()), item.ID(d.Uint64()), d.String(), d.Int()
		if err := RecordErr(d); err != nil {
			return err
		}
		cls, parentPattern, err := en.resolveSubObjectClass(parent, role)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrBadRecord, err)
		}
		o := &item.Object{
			ID: id, Class: cls, Parent: parent,
			Role: role, Index: index, Pattern: parentPattern,
		}
		en.insertObjectRaw(o)
		en.bumpID(o.ID)
		en.bumpIndex(o.Parent, role, index)
		return nil

	case RecSetValue:
		id, v := item.ID(d.Uint64()), item.DecodeValue(d, item.Inline)
		if err := RecordErr(d); err != nil {
			return err
		}
		if _, ok := en.st.object(id); !ok {
			return fmt.Errorf("%w: set value on unknown object %d", ErrBadRecord, id)
		}
		en.st.setValue(id, v)
		en.markDirty(id)
		return nil

	case RecCreateRel:
		id, assocName, ends := item.ID(d.Uint64()), d.String(), item.DecodeEnds(d, item.Inline)
		if err := RecordErr(d); err != nil {
			return err
		}
		assoc, err := en.sch.Association(assocName)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrBadRecord, err)
		}
		r := &item.Relationship{ID: id, Assoc: assoc, Ends: ends}
		r.SortEnds()
		for _, end := range r.Ends {
			if o, ok := en.st.object(end.Object); ok && !o.Deleted && o.Pattern {
				r.Pattern = true
				break
			}
		}
		en.insertRelRaw(r)
		en.bumpID(r.ID)
		return nil

	case RecInherit:
		id, pat, inh := item.ID(d.Uint64()), item.ID(d.Uint64()), item.ID(d.Uint64())
		if err := RecordErr(d); err != nil {
			return err
		}
		r := &item.Relationship{
			ID:       id,
			Inherits: true,
			Ends: []item.End{
				{Role: item.InheritsInheritorRole, Object: inh},
				{Role: item.InheritsPatternRole, Object: pat},
			},
		}
		r.SortEnds()
		en.insertRelRaw(r)
		en.bumpID(r.ID)
		return nil

	case RecDelete:
		id := item.ID(d.Uint64())
		if err := RecordErr(d); err != nil {
			return err
		}
		for _, vid := range en.deletionSet(id) {
			en.deleteRaw(vid)
		}
		return nil

	case RecReclassify:
		id, newName := item.ID(d.Uint64()), d.String()
		if err := RecordErr(d); err != nil {
			return err
		}
		if k, ok := en.st.kindOf(id); ok && k == item.KindObject {
			cls, err := en.sch.Class(newName)
			if err != nil {
				return fmt.Errorf("%w: %v", ErrBadRecord, err)
			}
			en.st.setClass(id, cls)
			en.markDirty(id)
			return nil
		} else if ok {
			assoc, err := en.sch.Association(newName)
			if err != nil {
				return fmt.Errorf("%w: %v", ErrBadRecord, err)
			}
			en.st.setAssoc(id, assoc)
			en.markDirty(id)
			return nil
		}
		return fmt.Errorf("%w: reclassify unknown item %d", ErrBadRecord, id)

	case RecSetPattern:
		id, pat := item.ID(d.Uint64()), d.Bool()
		if err := RecordErr(d); err != nil {
			return err
		}
		if _, ok := en.st.kindOf(id); ok {
			en.st.setPattern(id, pat)
			en.markDirty(id)
			en.setPatternSubtree(id, pat)
			return nil
		}
		return fmt.Errorf("%w: set pattern on unknown item %d", ErrBadRecord, id)
	}
	return fmt.Errorf("%w: tag %d", ErrBadRecord, payload[0])
}

// RecordErr reports a journal record's decode failure as ErrBadRecord,
// keeping the decoder's own error (a short buffer, a bad count) in the
// chain. Every record decoder — the engine's and the database's — checks
// it once, before it acts.
func RecordErr(d *storage.Decoder) error {
	if err := d.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrBadRecord, err)
	}
	return nil
}

// bumpID keeps ID allocation monotonic across replay.
func (en *Engine) bumpID(id item.ID) {
	if id >= en.nextID {
		en.nextID = id + 1
	}
}

// bumpIndex keeps sub-object index allocation monotonic across replay.
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
