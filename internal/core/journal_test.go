package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/item"
	"repro/internal/schema"
	"repro/internal/value"
)

// TestReplayDeterminism runs a random accepted operation sequence with
// journaling enabled, then replays the journal into a fresh engine and
// compares the complete captured states.
func TestReplayDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	en := newFig3(t)
	var journal [][]byte
	en.SetJournal(func(records [][]byte) error {
		journal = append(journal, records...)
		return nil
	})

	var objects []item.ID
	var rels []item.ID
	for i := 0; i < 1500; i++ {
		switch rng.Intn(8) {
		case 0, 1:
			if id, err := en.CreateObject("Data", fmt.Sprintf("D%d", i)); err == nil {
				objects = append(objects, id)
			}
			if id, err := en.CreateObject("Action", fmt.Sprintf("A%d", i)); err == nil {
				objects = append(objects, id)
			}
		case 2:
			if len(objects) > 0 {
				parent := objects[rng.Intn(len(objects))]
				if id, err := en.CreateSubObject(parent, "Description"); err == nil {
					_ = en.SetValue(id, value.NewString(fmt.Sprintf("v%d", i)))
				}
			}
		case 3:
			if len(objects) >= 2 {
				a := objects[rng.Intn(len(objects))]
				b := objects[rng.Intn(len(objects))]
				if id, err := en.CreateRelationship("Access", map[string]item.ID{"from": a, "by": b}); err == nil {
					rels = append(rels, id)
				}
			}
		case 4:
			if len(objects) > 0 {
				_ = en.Reclassify(objects[rng.Intn(len(objects))], "OutputData")
			}
		case 5:
			if len(rels) > 0 && rng.Intn(3) == 0 {
				idx := rng.Intn(len(rels))
				if en.Delete(rels[idx]) == nil {
					rels = append(rels[:idx], rels[idx+1:]...)
				}
			}
		case 6:
			if len(objects) > 0 && rng.Intn(5) == 0 {
				idx := rng.Intn(len(objects))
				if en.Delete(objects[idx]) == nil {
					objects = append(objects[:idx], objects[idx+1:]...)
				}
			}
		case 7:
			if len(objects) > 0 {
				id := objects[rng.Intn(len(objects))]
				if en.MarkPattern(id) == nil && rng.Intn(2) == 0 {
					_ = en.ClearPattern(id)
				}
			}
		}
	}

	// Replay into a fresh engine. Every proper prefix of a record is
	// refused first and must change nothing, or the states below diverge.
	re := newFig3(t)
	for i, rec := range journal {
		for cut := 1; cut < len(rec); cut++ {
			if err := re.ApplyRecords([][]byte{rec[:cut]}); !errors.Is(err, ErrBadRecord) {
				t.Fatalf("record %d cut to %d bytes: %v", i, cut, err)
			}
		}
		if err := re.ApplyRecords([][]byte{rec}); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}

	gotObjs, gotRels := re.CaptureAll()
	wantObjs, wantRels := en.CaptureAll()
	if len(gotObjs) != len(wantObjs) || len(gotRels) != len(wantRels) {
		t.Fatalf("replayed %d/%d items, want %d/%d",
			len(gotObjs), len(gotRels), len(wantObjs), len(wantRels))
	}
	for i := range wantObjs {
		if !reflect.DeepEqual(gotObjs[i], wantObjs[i]) {
			t.Fatalf("object %d differs:\n got %+v\nwant %+v", i, gotObjs[i], wantObjs[i])
		}
	}
	for i := range wantRels {
		if !reflect.DeepEqual(gotRels[i], wantRels[i]) {
			t.Fatalf("relationship %d differs:\n got %+v\nwant %+v", i, gotRels[i], wantRels[i])
		}
	}
	if re.NextID() != en.NextID() {
		t.Errorf("NextID: %d vs %d", re.NextID(), en.NextID())
	}
	// Dirty sets agree (no version freezes happened).
	if got, want := re.DirtyCount(), en.DirtyCount(); got != want {
		t.Errorf("dirty: %d vs %d", got, want)
	}
}

func TestApplyRecordErrors(t *testing.T) {
	en := newFig3(t)
	tx := en.BeginTx()
	if err := en.ApplyRecords([][]byte{{RecCreateObject}}); !errors.Is(err, ErrTxState) {
		t.Errorf("batch applied while a Tx is open: %v", err)
	}
	if err := en.RollbackTx(tx); err != nil {
		t.Fatal(err)
	}
	for name, rec := range map[string][]byte{
		"empty record":     nil,
		"unknown tag":      {255},
		"truncated record": {RecCreateObject, 0xFF},
	} {
		if err := en.ApplyRecords([][]byte{rec}); !errors.Is(err, ErrBadRecord) {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestJournalBufferedInTx: a transaction's records never reach the journal
// sink — CommitTx hands them to the caller as one batch, RollbackTx drops
// them.
func TestJournalBufferedInTx(t *testing.T) {
	en := newFig3(t)
	var journal [][]byte
	en.SetJournal(func(records [][]byte) error {
		journal = append(journal, records...)
		return nil
	})
	tx := en.BeginTx()
	en.SetActiveTx(tx)
	_, _ = en.CreateObject("Data", "A")
	if len(journal) != 0 {
		t.Fatal("record flushed before commit")
	}
	records, err := en.CommitTx(tx)
	if err != nil || len(records) != 1 || len(journal) != 0 {
		t.Fatalf("commit: %d records, %d journaled, err %v", len(records), len(journal), err)
	}
	tx = en.BeginTx()
	en.SetActiveTx(tx)
	_, _ = en.CreateObject("Data", "B")
	_ = en.RollbackTx(tx)
	if len(journal) != 0 {
		t.Fatalf("rolled-back record reached journal")
	}
	if _, err := en.CreateObject("Data", "C"); err != nil || len(journal) != 1 {
		t.Fatalf("one-operation write after the transactions: %d journaled, err %v", len(journal), err)
	}
}

// TestJournalErrorUndoesOp: when the journal sink fails, the operation is
// undone so memory and disk stay in agreement.
func TestJournalErrorUndoesOp(t *testing.T) {
	en := newFig3(t)
	fail := false
	en.SetJournal(func([][]byte) error {
		if fail {
			return fmt.Errorf("disk full")
		}
		return nil
	})
	if _, err := en.CreateObject("Data", "Good"); err != nil {
		t.Fatal(err)
	}
	fail = true
	if _, err := en.CreateObject("Data", "Bad"); err == nil {
		t.Fatal("journal failure not propagated")
	}
	if _, ok := en.View().ObjectByName("Bad"); ok {
		t.Error("operation persisted despite journal failure")
	}
	if _, ok := en.View().ObjectByName("Good"); !ok {
		t.Error("earlier committed operation lost")
	}
}

// FuzzApplyRecords splits arbitrary bytes into a batch of length-prefixed
// journal records and applies it to an engine holding a small fixed state.
// Applying must never panic, and a refused batch must leave the rebuilt
// frozen view and the committed ID mark as they were. The corpus starts
// from real records: the batches of further writes on the same state.
// Batches that create an item past fuzzMaxID are skipped: replay takes any
// fresh ID, and the engine's ID-keyed tables are dense, so such an ID costs
// memory in proportion to its size.
func FuzzApplyRecords(f *testing.F) {
	en := fuzzState(f)
	var all [][]byte
	en.SetJournal(func(records [][]byte) error {
		f.Add(joinRecords(records))
		all = append(all, records...)
		return nil
	})
	id := func(name string) item.ID { id, _ := en.View().ObjectByName(name); return id }
	must := func(_ item.ID, err error) {
		if err != nil {
			f.Fatal(err)
		}
	}
	must(en.CreateObject("OutputData", "Log"))
	must(en.CreateValueObject(id("Log"), "Revised", value.NewDate(time.Date(1986, 2, 5, 0, 0, 0, 0, time.UTC))))
	must(en.CreateRelationship("Write", map[string]item.ID{"from": id("Log"), "by": id("Sensor")}))
	must(en.CreateObject("Action", "Spare"))
	must(item.NoID, en.MarkPattern(id("Spare")))
	must(item.NoID, en.Reclassify(id("Alarms"), "InputData"))
	must(item.NoID, en.SetValue(en.View().Children(id("Alarms"), "Description")[0], value.NewString("revised")))
	must(item.NoID, en.Delete(id("Sensor")))
	f.Add(joinRecords(all))
	classes := append(schema.Figure3().ClassNames(), "NoSuchClass")

	f.Fuzz(func(t *testing.T, data []byte) {
		batch := splitRecords(data)
		if createsFarID(batch) {
			t.Skip()
		}
		en := fuzzState(t)
		before, next := en.FrozenViewRebuild().(frozenIndexes), en.NextID()
		if en.ApplyRecords(batch) == nil {
			return
		}
		if err := viewsDiff(en.FrozenViewRebuild().(frozenIndexes), before, classes); err != nil {
			t.Fatalf("refused batch changed the state: %v", err)
		}
		if en.NextID() != next {
			t.Fatalf("refused batch moved NextID() from %d to %d", next, en.NextID())
		}
	})
}

// fuzzState builds FuzzApplyRecords' fixed state: objects with valued
// sub-objects, a relationship, and a pattern with an inheritor.
func fuzzState(tb testing.TB) *Engine {
	tb.Helper()
	en := newTortureEngine(schema.Figure3())
	must := func(id item.ID, err error) item.ID {
		tb.Helper()
		if err != nil {
			tb.Fatal(err)
		}
		return id
	}
	alarms := must(en.CreateObject("Data", "Alarms"))
	must(en.CreateValueObject(alarms, "Description", value.NewString("alarm records")))
	sensor := must(en.CreateObject("Action", "Sensor"))
	must(en.CreateRelationship("Access", map[string]item.ID{"from": alarms, "by": sensor}))
	tmpl := must(en.CreatePatternObject("Data", "Template"))
	must(en.CreateValueObject(tmpl, "Description", value.NewString("shared")))
	must(en.Inherit(tmpl, must(en.CreateObject("Data", "Derived"))))
	return en
}

// joinRecords writes records as one length-prefixed byte string.
func joinRecords(records [][]byte) []byte {
	var out []byte
	for _, rec := range records {
		out = binary.AppendUvarint(out, uint64(len(rec)))
		out = append(out, rec...)
	}
	return out
}

// fuzzMaxID bounds the IDs FuzzApplyRecords lets a batch create.
const fuzzMaxID = 1 << 16

// createsFarID reports whether a creation record in batch names an ID past
// fuzzMaxID. Every creation record starts with its ID.
func createsFarID(batch [][]byte) bool {
	for _, rec := range batch {
		if len(rec) == 0 {
			continue
		}
		switch rec[0] {
		case RecCreateObject, RecCreateSub, RecCreateRel, RecInherit:
			if id, k := binary.Uvarint(rec[1:]); k > 0 && id > fuzzMaxID {
				return true
			}
		}
	}
	return false
}

// splitRecords reads joinRecords' format back from arbitrary bytes: a
// length past the end takes the rest, and a bad length prefix ends the
// batch with the rest as one record.
func splitRecords(data []byte) [][]byte {
	var batch [][]byte
	for len(data) > 0 {
		n, k := binary.Uvarint(data)
		if k <= 0 {
			return append(batch, data)
		}
		data = data[k:]
		n = min(n, uint64(len(data)))
		batch = append(batch, data[:n])
		data = data[n:]
	}
	return batch
}
