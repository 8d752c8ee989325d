package seed

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
)

// Golden digests of the persistent format: a snapshot payload and the full
// journal of one fixed database. Any change to the bytes written to disk or
// shipped to followers changes them; a codec refactor must leave both
// untouched. Regenerate only with a deliberate, versioned format change.
const (
	goldenSnapshotDigest = "7468f71e4bdb6a6586081f041cb89d4c0c851b08f8310ebfad7dee5e9d38cda8"
	goldenJournalDigest  = "9f9ff0a5709f5e99e04973be9feb87a482d783be4248a0bc5d9f782a5e51b7e7"
)

// goldenDB builds the fixed database: objects, sub-objects, every value kind,
// relationships, a pattern with an inheritor, a multi-record transaction,
// reclassify, delete, two saved versions with deltas, and an evolved schema.
func goldenDB(t testing.TB, dir string) *Database {
	t.Helper()
	db := openDB(t, dir, Options{Schema: Figure3Schema(), Clock: fixedClock()})
	must := func(id ID, err error) ID {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	date := NewDate(time.Date(1986, 2, 5, 0, 0, 0, 0, time.UTC))

	alarms := must(db.CreateObject("Data", "Alarms"))
	must(db.CreateValueObject(alarms, "Description", NewString("alarm records")))
	must(db.CreateValueObject(alarms, "Revised", date))
	text := must(db.CreateSubObject(alarms, "Text"))
	body := must(db.CreateSubObject(text, "Body"))
	must(db.CreateValueObject(body, "Keywords", NewString("alarm")))
	must(db.CreateValueObject(body, "Keywords", NewString("sensor")))
	must(db.CreateValueObject(text, "Selector", NewString("Representation")))
	sensor := must(db.CreateObject("Action", "Sensor"))
	must(db.CreateRelationship("Access", map[string]ID{"from": alarms, "by": sensor}))
	if _, err := db.SaveVersion("first"); err != nil {
		t.Fatal(err)
	}

	tx, err := db.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	log := must(tx.CreateObject("OutputData", "Log"))
	must(tx.CreateValueObject(log, "Revised", date))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	writer := must(db.CreateObject("Action", "Writer"))
	must(db.CreateRelationship("Access", map[string]ID{"from": log, "by": writer}))
	tmpl := must(db.CreatePatternObject("Data", "Template"))
	must(db.CreateValueObject(tmpl, "Description", NewString("shared")))
	inh := must(db.CreateObject("Data", "Derived"))
	must(db.Inherit(tmpl, inh))
	if err := db.MarkPattern(must(db.CreateObject("Action", "Spare"))); err != nil {
		t.Fatal(err)
	}
	if err := db.Reclassify(alarms, "InputData"); err != nil {
		t.Fatal(err)
	}
	scratch := must(db.CreateObject("Data", "Scratch"))
	if err := db.Delete(scratch); err != nil {
		t.Fatal(err)
	}

	err = db.EvolveSchema(func(s *Schema) error {
		c, err := s.AddClass("Module")
		if err != nil {
			return err
		}
		for _, a := range []struct {
			name string
			kind Kind
		}{{"Lines", KindInteger}, {"Weight", KindReal}, {"Done", KindBoolean}} {
			if _, err := c.AddChild(a.name, AtMostOne, a.kind); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	mod := must(db.CreateObject("Module", "Kernel"))
	lines := must(db.CreateValueObject(mod, "Lines", NewInteger(-1200)))
	must(db.CreateValueObject(mod, "Weight", NewReal(2.75)))
	must(db.CreateValueObject(mod, "Done", NewBoolean(true)))
	if err := db.SetValue(lines, NewInteger(4096)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.SaveVersion("second"); err != nil {
		t.Fatal(err)
	}
	return db
}

// journalRecords collects every record of the log in dir, in order.
type journalRecords [][]byte

func (j *journalRecords) LoadSnapshot([]byte) error { return nil }
func (j *journalRecords) ApplyRecord(p []byte) error {
	*j = append(*j, append([]byte(nil), p...))
	return nil
}

// digest hashes a sequence of payloads, each prefixed with its length.
func digest(payloads ...[]byte) string {
	h := sha256.New()
	for _, p := range payloads {
		h.Write(binary.AppendUvarint(nil, uint64(len(p))))
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestGoldenPersistentBytes(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db := goldenDB(t, dir)
	db.mu.RLock()
	snap, err := db.encodeSnapshot()
	db.mu.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	var recs journalRecords
	st, err := storage.Open(dir, &recs, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// The tags of the top-level records and of the engine records inside
	// each batch record.
	tags := map[byte]bool{}
	for _, r := range recs {
		tags[r[0]] = true
		if r[0] != recBatch {
			continue
		}
		inner, err := splitBatch(r[1:])
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range inner {
			tags[in[0]] = true
		}
	}
	for _, tag := range []byte{
		core.RecCreateObject, core.RecCreateSub, core.RecSetValue, core.RecCreateRel,
		core.RecInherit, core.RecDelete, core.RecReclassify, core.RecSetPattern, recSchema, recSaveVersion, recBatch} {
		if !tags[tag] {
			t.Errorf("journal has no record with tag %d", tag)
		}
	}
	if got := digest(snap); got != goldenSnapshotDigest {
		t.Errorf("snapshot digest = %s, want %s", got, goldenSnapshotDigest)
	}
	if got := digest(recs...); got != goldenJournalDigest {
		t.Errorf("journal digest (%d records) = %s, want %s", len(recs), got, goldenJournalDigest)
	}

	// Decoding the snapshot and encoding it again reproduces it exactly.
	rep := NewFollower()
	if err := rep.ApplyLogSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	rep.mu.RLock()
	again, err := rep.encodeSnapshot()
	rep.mu.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	if digest(again) != digest(snap) {
		t.Error("snapshot changed across decode and re-encode")
	}
}
