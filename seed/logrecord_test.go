package seed

import (
	"encoding/binary"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/storage"
)

// TestOversizeWriteLeavesLogOpenable: a write set too large for one log
// record — a Tx and a one-operation CreateValueObject, each carrying a
// value of MaxRecord+1 bytes — is refused with storage.ErrOversize and
// leaves nothing behind: the object is absent from View, a later
// multi-record write commits, and the directory reopens with exactly that
// later write.
func TestOversizeWriteLeavesLogOpenable(t *testing.T) {
	huge := NewString(strings.Repeat("x", storage.MaxRecord+1))
	for _, tc := range []struct {
		name  string
		write func(db *Database, parent ID) error
	}{
		{"tx", func(db *Database, parent ID) error {
			tx, err := db.BeginTx()
			if err != nil {
				return err
			}
			big, err := tx.CreateObject("Data", "Big")
			if err != nil {
				return err
			}
			if _, err := tx.CreateValueObject(big, "Description", huge); err != nil {
				return err
			}
			return tx.Commit()
		}},
		{"one operation", func(db *Database, parent ID) error {
			_, err := db.CreateValueObject(parent, "Description", huge)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "db")
			db := openDB(t, dir, Options{Schema: Figure3Schema(), Clock: fixedClock()})
			parent := create(t, db, "Data", "Alarms")
			if err := tc.write(db, parent); !errors.Is(err, storage.ErrOversize) {
				t.Fatalf("oversize write: got %v, want ErrOversize", err)
			}
			v := db.View()
			if _, ok := v.ObjectByName("Big"); ok {
				t.Error("refused transaction's object is visible")
			}
			if kids := v.Children(parent, "Description"); len(kids) != 0 {
				t.Errorf("refused write left %d Description children", len(kids))
			}

			tx, err := db.BeginTx()
			if err != nil {
				t.Fatal(err)
			}
			after, err := tx.CreateObject("Data", "After")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tx.CreateValueObject(after, "Description", NewString("small")); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatalf("write after the refusal: %v", err)
			}
			want := dumpState(db)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			re, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("reopen after the refusal: %v", err)
			}
			defer re.Close()
			if got := dumpState(re); got != want {
				t.Errorf("reopened state:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// TestRetiredBatchFramingRejected: a log written with the retired
// per-record transaction framing — a tag 21, 22 or 23 record, or a bare
// engine record at top level — fails Open with errRetiredFraming, and a
// follower refuses the same records.
func TestRetiredBatchFramingRejected(t *testing.T) {
	bare := newRecordEncoder(core.RecCreateObject)
	bare.Uint64(100)
	bare.String("Data")
	bare.String("Old")
	bare.Bool(false)
	for _, tc := range []struct {
		name    string
		records [][]byte
	}{
		{"begin", [][]byte{{21}, bare.Bytes(), {22}}},
		{"end", [][]byte{{22}}},
		{"abort", [][]byte{{23}}},
		{"bare engine record", [][]byte{bare.Bytes()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "db")
			db := openDB(t, dir, Options{Schema: Figure3Schema(), Clock: fixedClock()})
			create(t, db, "Data", "Alarms")
			rep, _ := bootstrapReplica(t, db)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			st, err := storage.Open(dir, nil, storage.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range tc.records {
				if err := st.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if re, err := Open(dir, Options{}); !errors.Is(err, errRetiredFraming) {
				if err == nil {
					re.Close()
				}
				t.Fatalf("Open over the retired framing: got %v, want errRetiredFraming", err)
			}
			if err := rep.ApplyLogRecords(tc.records); !errors.Is(err, errRetiredFraming) {
				t.Errorf("follower: got %v, want errRetiredFraming", err)
			}
		})
	}
}

// FuzzApplyLogRecord applies arbitrary bytes as one top-level log record
// to a follower holding the golden database's final state, and to an empty
// follower. Applying must never panic, and a refused batch record must
// leave the state digest as it was. The corpus is the golden database's
// own journal — its batch, schema and version records — and a vacuum
// record, which an empty follower must refuse. Batches that create an item past
// logFuzzMaxID are skipped, as FuzzApplyRecords skips them: replay takes
// any fresh ID, and the engine's ID-keyed tables are dense.
func FuzzApplyLogRecord(f *testing.F) {
	dir := filepath.Join(f.TempDir(), "db")
	db := goldenDB(f, dir)
	db.mu.RLock()
	snap, err := db.encodeSnapshot()
	db.mu.RUnlock()
	if err != nil {
		f.Fatal(err)
	}
	if err := db.Close(); err != nil {
		f.Fatal(err)
	}
	var recs journalRecords
	st, err := storage.Open(dir, &recs, storage.Options{})
	if err != nil {
		f.Fatal(err)
	}
	if err := st.Close(); err != nil {
		f.Fatal(err)
	}
	for _, rec := range recs {
		f.Add(rec)
	}
	f.Add([]byte{recVacuum})
	base := NewFollower()
	if err := base.ApplyLogSnapshot(snap); err != nil {
		f.Fatal(err)
	}
	before, err := base.StateDigest()
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, rec []byte) {
		if len(rec) > 0 && rec[0] == recBatch && createsFarID(rec[1:]) {
			t.Skip("creates an item past logFuzzMaxID")
		}
		_ = NewFollower().ApplyLogRecords([][]byte{rec})
		rep := NewFollower()
		if err := rep.ApplyLogSnapshot(snap); err != nil {
			t.Fatal(err)
		}
		err := rep.ApplyLogRecords([][]byte{rec})
		if err == nil || len(rec) == 0 || rec[0] != recBatch {
			return
		}
		if after, derr := rep.StateDigest(); derr != nil || after != before {
			t.Fatalf("refused batch record (%v) changed the follower's state (%v)", err, derr)
		}
	})
}

// logFuzzMaxID bounds the IDs FuzzApplyLogRecord lets a batch create.
const logFuzzMaxID = 1 << 16

// createsFarID reports whether a batch body holds a creation record naming
// an ID past logFuzzMaxID. Every creation record starts with its ID.
func createsFarID(body []byte) bool {
	records, err := splitBatch(body)
	if err != nil {
		return false
	}
	for _, rec := range records {
		if len(rec) == 0 {
			continue
		}
		switch rec[0] {
		case core.RecCreateObject, core.RecCreateSub, core.RecCreateRel, core.RecInherit:
			if id, k := binary.Uvarint(rec[1:]); k > 0 && id > logFuzzMaxID {
				return true
			}
		}
	}
	return false
}
