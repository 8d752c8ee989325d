package seed

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/sdl"
)

// Database-level journal records. Tags below 16 belong to the engine
// (core) and appear only inside a recBatch; tags here cover committed
// write sets and schema and version operations, so that a replayed log
// reproduces the complete database including its version tree.
const (
	recSchema        byte = 16 // SDL text of a schema version
	recSaveVersion   byte = 17 // note, timestamp, expected number
	recSelectVersion byte = 18 // version number
	recDeleteVersion byte = 19 // version number
	recVacuum        byte = 20 // purge unreferenced tombstones (no payload)

	// recBatch is one committed engine write set — a one-operation write or
	// a Tx — as one record: the count, then each engine record
	// length-prefixed. The segment CRC that guards any record is the
	// batch's atomicity: it cannot be half-appended, torn at a record
	// boundary, or split by a segment rotation or a stream chunk. Tags 21-23
	// held the retired begin/end/abort framing of multi-record batches.
	recBatch byte = 24
)

// errRetiredFraming refuses a log written before one-record commits: its
// transactions are begin/end/abort records around bare engine records,
// which this version does not read.
var errRetiredFraming = errors.New("seed: retired per-record transaction framing (a log from before one-record commits)")

// encBatch encodes a committed write set's engine records as one recBatch
// record.
func encBatch(records [][]byte) []byte {
	size := 1 + binary.MaxVarintLen64
	for _, r := range records {
		size += binary.MaxVarintLen64 + len(r)
	}
	buf := append(make([]byte, 0, size), recBatch)
	buf = binary.AppendUvarint(buf, uint64(len(records)))
	for _, r := range records {
		buf = binary.AppendUvarint(buf, uint64(len(r)))
		buf = append(buf, r...)
	}
	return buf
}

// splitBatch splits a recBatch body into its engine records, which alias
// body. The layout is codec's (a uvarint count, uvarint-prefixed runs), cut
// without a copy and bounded by the body rather than codec.MaxBlob, as the
// log bounds the whole record. There is at least one record, no length
// overruns the body, and nothing follows the last record.
func splitBatch(body []byte) ([][]byte, error) {
	n, k := binary.Uvarint(body)
	if k <= 0 || n == 0 || n > uint64(len(body)-k) {
		return nil, fmt.Errorf("%w: batch count", core.ErrBadRecord)
	}
	body = body[k:]
	records := make([][]byte, n)
	for i := range records {
		size, k := binary.Uvarint(body)
		if k <= 0 || size > uint64(len(body)-k) {
			return nil, fmt.Errorf("%w: batch record %d of %d overruns the record", core.ErrBadRecord, i+1, n)
		}
		records[i], body = body[k:k+int(size)], body[k+int(size):]
	}
	if len(body) > 0 {
		return nil, fmt.Errorf("%w: %d bytes after the batch's last record", core.ErrBadRecord, len(body))
	}
	return records, nil
}

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

// recovery adapts the database to storage.RecoveryHandler. Recovery runs
// from Open before the *Database value is published, so no other goroutine
// can reach the state it replays into.
type recovery struct{ db *Database }

// LoadSnapshot restores the full state written by Compact.
func (r recovery) LoadSnapshot(payload []byte) error { return r.db.loadSnapshot(payload) }

// ApplyRecord replays one write-ahead log record.
func (r recovery) ApplyRecord(payload []byte) error { return r.db.applyRecord(payload) }

// applyRecord is the one dispatch of a top-level log record, for crash
// recovery and a follower's stream alike: a committed write set applies as
// one engine transaction (core ApplyRecords), so a refused one changes
// nothing; schema and version records evolve their planes. Every record
// but a schema record needs the engine a schema record creates.
//
// seed:locked-caller
func (db *Database) applyRecord(payload []byte) error {
	if len(payload) == 0 {
		return core.ErrBadRecord
	}
	tag := payload[0]
	if db.engine == nil && tag != recSchema {
		return fmt.Errorf("%w: tag %d before the schema record", core.ErrBadRecord, tag)
	}
	d := codec.NewDecoder(payload[1:])
	switch tag {
	case recBatch:
		records, err := splitBatch(payload[1:])
		if err != nil {
			return err
		}
		return db.engine.ApplyRecords(records)

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
	if tag >= core.RecCreateObject && tag <= core.RecDataMax || tag > recVacuum && tag < recBatch {
		return fmt.Errorf("%w: %w: tag %d", core.ErrBadRecord, errRetiredFraming, tag)
	}
	return fmt.Errorf("%w: tag %d", core.ErrBadRecord, tag)
}
