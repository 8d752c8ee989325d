package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/item"
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
	re.BeginReplay()
	for i, rec := range journal {
		for cut := 1; cut < len(rec); cut++ {
			if err := re.ApplyRecord(rec[:cut]); !errors.Is(err, ErrBadRecord) {
				t.Fatalf("record %d cut to %d bytes: %v", i, cut, err)
			}
		}
		if err := re.ApplyRecord(rec); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	re.EndReplay()

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
	if err := en.ApplyRecord([]byte{RecCreateObject}); err == nil {
		t.Error("ApplyRecord outside replay accepted")
	}
	en.BeginReplay()
	defer en.EndReplay()
	if err := en.ApplyRecord(nil); err == nil {
		t.Error("empty record accepted")
	}
	if err := en.ApplyRecord([]byte{255}); err == nil {
		t.Error("unknown tag accepted")
	}
	if err := en.ApplyRecord([]byte{RecCreateObject, 0xFF}); err == nil {
		t.Error("truncated record accepted")
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
