package seed

import (
	"fmt"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/sdl"
)

// Database-level journal records. Tags below 16 belong to the engine
// (core); tags here cover schema and version operations so that a replayed
// log reproduces the complete database including its version tree.
const (
	recSchema        byte = 16 // SDL text of a schema version
	recSaveVersion   byte = 17 // note, timestamp, expected number
	recSelectVersion byte = 18 // version number
	recDeleteVersion byte = 19 // version number
	recVacuum        byte = 20 // purge unreferenced tombstones (no payload)

	// Transaction batch framing. A committed multi-record transaction is
	// appended as recTxBegin, the data records, recTxEnd — contiguously, so
	// recovery applies the whole batch or none of it. A crash can tear the
	// tail mid-batch: replay then buffers records that never see their end
	// marker and drops them, and the next open neutralizes the fragment
	// durably with recTxAbort before it appends anything, so later appends
	// are never mistaken for its continuation. Single-record commits skip
	// the framing (one record is one batch).
	recTxBegin byte = 21 // start of a committed transaction batch
	recTxEnd   byte = 22 // end of a committed transaction batch
	recTxAbort byte = 23 // torn batch fragment precedes; discard it
)

// encTxBoundary encodes one of the single-byte batch framing records.
func encTxBoundary(tag byte) []byte { return []byte{tag} }

// newRecordEncoder starts an encoder with the record tag written.
func newRecordEncoder(tag byte) *codec.Encoder {
	e := codec.NewEncoder(nil)
	e.Byte(tag)
	return e
}

func encSchemaRecord(text string) []byte {
	e := newRecordEncoder(recSchema)
	e.String(text)
	return e.Bytes()
}

func encSaveVersion(note string, at time.Time, num VersionNumber) []byte {
	e := newRecordEncoder(recSaveVersion)
	e.String(note)
	e.Time(at)
	e.Ints(num)
	return e.Bytes()
}

// encVersionRecord encodes a record whose one field is a version number:
// recSelectVersion or recDeleteVersion.
func encVersionRecord(tag byte, num VersionNumber) []byte {
	e := newRecordEncoder(tag)
	e.Ints(num)
	return e.Bytes()
}

// recovery adapts the database to storage.RecoveryHandler. Transaction
// batches (recTxBegin ... recTxEnd) are buffered and applied only when
// their end marker arrives, as one engine transaction (core ApplyRecords):
// a batch torn by a crash mid-append, or refused for a bad record, never
// surfaces half-applied.
type recovery struct {
	db      *Database
	batch   [][]byte // buffered data records of an open batch
	inBatch bool
}

// LoadSnapshot restores the full state written by Compact.
//
// seed:locked-caller — recovery runs from newDatabase before the
// *Database value is published; no concurrent access is possible.
func (r *recovery) LoadSnapshot(payload []byte) error {
	return r.db.loadSnapshot(payload)
}

// ApplyRecord dispatches one write-ahead log record.
//
// seed:locked-caller — recovery runs from newDatabase before the
// *Database value is published; no concurrent access is possible.
func (r *recovery) ApplyRecord(payload []byte) error {
	if len(payload) == 0 {
		return core.ErrBadRecord
	}
	db := r.db
	tag := payload[0]
	if r.inBatch {
		if tag <= core.RecDataMax {
			// The scan loop reuses its record buffer; keep a copy.
			r.batch = append(r.batch, append([]byte(nil), payload...))
			return nil
		}
		batch := r.batch
		r.inBatch, r.batch = false, r.batch[:0]
		switch tag {
		case recTxEnd:
			return r.applyData(batch)
		case recTxAbort:
			return nil
		}
		return fmt.Errorf("%w: tag %d inside a transaction batch", core.ErrBadRecord, tag)
	}
	if tag <= core.RecDataMax {
		return r.applyData([][]byte{payload})
	}
	switch tag {
	case recTxBegin:
		r.inBatch = true
		r.batch = r.batch[:0]
		return nil
	case recTxEnd, recTxAbort:
		// An end or abort without an open batch is the benign residue of a
		// healed fragment; nothing to do.
		return nil
	}
	d := codec.NewDecoder(payload[1:])
	switch tag {
	case recSchema:
		text := d.String()
		if err := core.RecordErr(d); err != nil {
			return err
		}
		sch, err := sdl.Parse(text)
		if err != nil {
			return fmt.Errorf("seed: replaying schema record: %w", err)
		}
		if db.engine == nil {
			en, err := core.NewEngine(sch)
			if err != nil {
				return err
			}
			db.engine = en
			db.schemas = []*Schema{sch}
			return nil
		}
		// Schema evolution: versions were validated when first applied.
		if sch.Version() != len(db.schemas)+1 {
			return fmt.Errorf("seed: schema record version %d, expected %d",
				sch.Version(), len(db.schemas)+1)
		}
		if err := db.engine.SetSchema(sch); err != nil {
			return err
		}
		if err := db.engine.RebindSchema(); err != nil {
			return err
		}
		db.schemas = append(db.schemas, sch)
		return nil

	case recSaveVersion:
		note, at, want := d.String(), d.Time(), VersionNumber(d.Ints())
		if err := core.RecordErr(d); err != nil {
			return err
		}
		num, err := db.saveVersionLocked(note, at)
		if err != nil {
			return err
		}
		if !num.Equal(want) {
			return fmt.Errorf("seed: replayed version %s, journal recorded %s", num, want)
		}
		return nil

	case recSelectVersion:
		num := VersionNumber(d.Ints())
		if err := core.RecordErr(d); err != nil {
			return err
		}
		return db.selectVersionLocked(num)

	case recDeleteVersion:
		num := VersionNumber(d.Ints())
		if err := core.RecordErr(d); err != nil {
			return err
		}
		return db.deleteVersionLocked(num)

	case recVacuum:
		// The keep-set is deterministic from the replayed version tree.
		_, err := db.vacuumLocked()
		return err
	}
	return fmt.Errorf("%w: tag %d", core.ErrBadRecord, tag)
}

// applyData applies a batch of engine records as one engine transaction.
//
// seed:locked-caller — called from ApplyRecord.
func (r *recovery) applyData(batch [][]byte) error {
	if r.db.engine == nil {
		return fmt.Errorf("%w: data record before schema record", core.ErrBadRecord)
	}
	return r.db.engine.ApplyRecords(batch)
}
