package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/item"
	"repro/internal/schema"
	"repro/internal/value"
)

// Tests for concurrent transaction handles: disjoint staging commits
// independently, overlapping write sets conflict at validation time, and
// rollback never perturbs another transaction's staged work. The engine is
// externally synchronized, so these tests interleave operations on one
// goroutine the way the seed database's write lock would.

// stage runs op attributed to tx.
func stage(en *Engine, tx *Tx, op func() error) error {
	en.SetActiveTx(tx)
	defer en.ClearActiveTx()
	return op()
}

func TestMultiTxDisjointCommit(t *testing.T) {
	en := newFig3(t)
	en.SetJournal(func([][]byte) error { return nil }) // records are encoded only with a sink
	a := mustCreate(t, en, "Data", "A")
	b := mustCreate(t, en, "Data", "B")

	tx1 := en.BeginTx()
	tx2 := en.BeginTx()

	var da, db item.ID
	if err := stage(en, tx1, func() (err error) {
		da, err = en.CreateValueObject(a, "Description", value.NewString("from tx1"))
		return err
	}); err != nil {
		t.Fatalf("tx1 stage: %v", err)
	}
	if err := stage(en, tx2, func() (err error) {
		db, err = en.CreateValueObject(b, "Description", value.NewString("from tx2"))
		return err
	}); err != nil {
		t.Fatalf("tx2 stage: %v", err)
	}

	rec1, err := en.CommitTx(tx1)
	if err != nil {
		t.Fatalf("commit tx1: %v", err)
	}
	if len(rec1) != 2 { // create-sub + set-value
		t.Errorf("tx1 records = %d, want 2", len(rec1))
	}
	if _, err := en.CommitTx(tx2); err != nil {
		t.Fatalf("commit tx2: %v", err)
	}
	if en.InTx() {
		t.Error("InTx after both commits")
	}
	for id, want := range map[item.ID]string{da: "from tx1", db: "from tx2"} {
		o, err := en.Object(id)
		if err != nil || o.Value.Str() != want {
			t.Errorf("object %d = %q (%v), want %q", id, o.Value.Str(), err, want)
		}
	}
}

func TestMultiTxOverlapConflicts(t *testing.T) {
	en := newFig3(t)
	a := mustCreate(t, en, "Data", "A")
	d, err := en.CreateValueObject(a, "Description", value.NewString("base"))
	if err != nil {
		t.Fatal(err)
	}

	tx1 := en.BeginTx()
	tx2 := en.BeginTx()
	if err := stage(en, tx1, func() error {
		return en.SetValue(d, value.NewString("tx1"))
	}); err != nil {
		t.Fatalf("tx1 claims d: %v", err)
	}
	// tx2 touching the same value object must conflict, not interleave.
	err = stage(en, tx2, func() error {
		return en.SetValue(d, value.NewString("tx2"))
	})
	if !errors.Is(err, ErrTxConflict) {
		t.Fatalf("overlapping SetValue: got %v, want ErrTxConflict", err)
	}
	// So must a sub-object creation under the claimed root's subtree parent.
	err = stage(en, tx2, func() error {
		_, err := en.CreateSubObject(a, "Text")
		return err
	})
	if err == nil {
		// a is not claimed by tx1 (only d is), so this is allowed
		t.Log("CreateSubObject under unclaimed parent allowed (expected)")
	}
	// A one-operation write to the claimed item must conflict too: it would
	// commit on the spot underneath tx1's staged batch.
	if err := en.SetValue(d, value.NewString("auto")); !errors.Is(err, ErrTxConflict) {
		t.Fatalf("one-operation write on claimed item: got %v, want ErrTxConflict", err)
	}
	if _, err := en.CommitTx(tx1); err != nil {
		t.Fatal(err)
	}
	if err := en.RollbackTx(tx2); err != nil {
		t.Fatal(err)
	}
	o, _ := en.Object(d)
	if o.Value.Str() != "tx1" {
		t.Errorf("final value %q, want %q", o.Value.Str(), "tx1")
	}
}

func TestMultiTxCommittedAfterBeginConflicts(t *testing.T) {
	en := newFig3(t)
	a := mustCreate(t, en, "Data", "A")
	d, err := en.CreateValueObject(a, "Description", value.NewString("base"))
	if err != nil {
		t.Fatal(err)
	}

	tx1 := en.BeginTx() // pins the base generation before tx2's commit
	tx2 := en.BeginTx()
	if err := stage(en, tx2, func() error {
		return en.SetValue(d, value.NewString("tx2"))
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := en.CommitTx(tx2); err != nil {
		t.Fatal(err)
	}
	// tx1 began before tx2's commit: claiming the item now must conflict —
	// the frozen generation carrying tx2's value may not be patched with
	// tx1's staged state.
	err = stage(en, tx1, func() error {
		return en.SetValue(d, value.NewString("tx1"))
	})
	if !errors.Is(err, ErrTxConflict) {
		t.Fatalf("claim after newer commit: got %v, want ErrTxConflict", err)
	}
	if err := en.RollbackTx(tx1); err != nil {
		t.Fatal(err)
	}
}

func TestMultiTxRollbackIsolation(t *testing.T) {
	en := newFig3(t)
	a := mustCreate(t, en, "Data", "A")
	b := mustCreate(t, en, "Data", "B")

	tx1 := en.BeginTx()
	tx2 := en.BeginTx()
	if err := stage(en, tx1, func() (err error) {
		_, err = en.CreateValueObject(a, "Description", value.NewString("doomed"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	var db item.ID
	if err := stage(en, tx2, func() (err error) {
		db, err = en.CreateValueObject(b, "Description", value.NewString("kept"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := en.RollbackTx(tx1); err != nil {
		t.Fatal(err)
	}
	if _, err := en.CommitTx(tx2); err != nil {
		t.Fatal(err)
	}
	// tx1's staged sub-object is gone, tx2's survives.
	if got := en.View().Children(a, "Description"); len(got) != 0 {
		t.Errorf("rolled-back sub-object survived: %v", got)
	}
	o, err := en.Object(db)
	if err != nil || o.Value.Str() != "kept" {
		t.Errorf("committed object lost: %v %v", o, err)
	}
	// The frozen view after the interleaved finish must equal a rebuild.
	got := en.FrozenView()
	want := en.FrozenViewRebuild()
	if len(got.Objects()) != len(want.Objects()) || len(got.Relationships()) != len(want.Relationships()) {
		t.Errorf("frozen view diverged from rebuild: %d/%d objects, %d/%d rels",
			len(got.Objects()), len(want.Objects()), len(got.Relationships()), len(want.Relationships()))
	}
}

func TestMultiTxNameConflicts(t *testing.T) {
	en := newFig3(t)
	x := mustCreate(t, en, "Data", "X")

	// delete X in tx1 vs create X in tx2: the name index is the contended
	// resource; tx2 must conflict, not resurrect the name.
	tx1 := en.BeginTx()
	tx2 := en.BeginTx()
	if err := stage(en, tx1, func() error { return en.Delete(x) }); err != nil {
		t.Fatal(err)
	}
	err := stage(en, tx2, func() error {
		_, err := en.CreateObject("Data", "X")
		return err
	})
	if !errors.Is(err, ErrTxConflict) {
		t.Fatalf("create of deleted-in-flight name: got %v, want ErrTxConflict", err)
	}
	// create/create on a fresh name conflicts as well.
	if err := stage(en, tx2, func() error {
		_, err := en.CreateObject("Data", "Fresh")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	err = stage(en, tx1, func() error {
		_, err := en.CreateObject("Data", "Fresh")
		return err
	})
	if !errors.Is(err, ErrTxConflict) {
		t.Fatalf("create/create race: got %v, want ErrTxConflict", err)
	}
	if err := en.RollbackTx(tx1); err != nil {
		t.Fatal(err)
	}
	if _, err := en.CommitTx(tx2); err != nil {
		t.Fatal(err)
	}
	// tx1's delete rolled back: X lives; tx2's Fresh committed.
	if _, ok := en.View().ObjectByName("X"); !ok {
		t.Error("X lost after rollback")
	}
	if _, ok := en.View().ObjectByName("Fresh"); !ok {
		t.Error("Fresh lost after commit")
	}
}

// TestMultiTxFrozenChainBoundedWhileStaged: under sustained load there is
// almost always a staged transaction, so the freeze can never seal the live
// builders (they hold uncommitted rows) and must patch committed items over
// the previous generation instead. Those patches pile up generation after
// generation; the bound is the per-chunk patch list, which must materialize
// past vpatchMax so every read stays one chunk lookup plus a short search.
// Every such generation must also hide the staged batch and show each
// committed value, and after the commit the incremental view must equal a
// rebuild. The subtest keeps the name it had beside the retired map store.
func TestMultiTxFrozenChainBoundedWhileStaged(t *testing.T) {
	t.Run("columnar=true", func(t *testing.T) {
		en := newTortureEngine(schema.Figure3())
		var descs []item.ID // one committed value object per generation to come
		for i := 0; i < 3*vpatchMax; i++ {
			d, err := en.CreateValueObject(mustCreate(t, en, "Data", fmt.Sprintf("Hot%d", i)),
				"Description", value.NewString("v0"))
			if err != nil {
				t.Fatal(err)
			}
			descs = append(descs, d)
		}
		staged := mustCreate(t, en, "Data", "StagedRoot")
		_ = en.FrozenView() // pin a base before staging, as seed.BeginTx does

		tx := en.BeginTx()
		if err := stage(en, tx, func() (err error) {
			_, err = en.CreateValueObject(staged, "Description", value.NewString("uncommitted"))
			return err
		}); err != nil {
			t.Fatal(err)
		}

		// Far more generations than vpatchMax while the transaction stays
		// open, each patching a different committed row.
		for i, d := range descs {
			want := fmt.Sprintf("v%d", i+1)
			if err := en.SetValue(d, value.NewString(want)); err != nil {
				t.Fatal(err)
			}
			fv := en.FrozenView()
			f := fv.(*colFrozen)
			if n := max(maxPatches(f.ords), maxPatches(f.objRows)); n > vpatchMax {
				t.Fatalf("generation %d: a chunk carries %d patches while staged, cap %d", i, n, vpatchMax)
			}
			if kids := fv.Children(staged, "Description"); len(kids) != 0 {
				t.Fatalf("generation %d: staged sub-object leaked into frozen view", i)
			}
			if o, ok := fv.Object(d); !ok || o.Value.Str() != want {
				t.Fatalf("generation %d: committed value %q missing", i, want)
			}
		}
		if _, err := en.CommitTx(tx); err != nil {
			t.Fatal(err)
		}
		got := en.FrozenView().(frozenIndexes)
		if err := viewsDiff(got, en.FrozenViewRebuild().(frozenIndexes), en.Schema().ClassNames()); err != nil {
			t.Fatal(err)
		}
	})
}

// maxPatches is the longest patch list of any chunk of a.
func maxPatches[T any](a verArr[T]) (n int) {
	for _, c := range a.chunks {
		if c != nil {
			n = max(n, len(c.patches))
		}
	}
	return n
}

func TestMultiTxDeleteCascadeClaimsRelEnds(t *testing.T) {
	en := newFig3(t)
	a := mustCreate(t, en, "Data", "A")
	h := mustCreate(t, en, "Action", "H")
	if _, err := en.CreateRelationship("Access", map[string]item.ID{"from": a, "by": h}); err != nil {
		t.Fatal(err)
	}

	// Deleting A cascades to the relationship, whose unlinking perturbs
	// H's relationship list — so a transaction staging on H must conflict.
	tx1 := en.BeginTx()
	tx2 := en.BeginTx()
	if err := stage(en, tx2, func() (err error) {
		_, err = en.CreateValueObject(h, "Description", value.NewString("busy"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	err := stage(en, tx1, func() error { return en.Delete(a) })
	if !errors.Is(err, ErrTxConflict) {
		t.Fatalf("cascade into claimed end: got %v, want ErrTxConflict", err)
	}
	if err := en.RollbackTx(tx1); err != nil {
		t.Fatal(err)
	}
	if _, err := en.CommitTx(tx2); err != nil {
		t.Fatal(err)
	}
}

// TestMultiTxRejectedAutoOpLeavesNoStamp: a refused one-operation write
// publishes nothing, so it stamps neither the item nor the name it touched
// and an open transaction can still claim both.
func TestMultiTxRejectedAutoOpLeavesNoStamp(t *testing.T) {
	en := newFig3(t)
	b := mustCreate(t, en, "Data", "B")
	d, err := en.CreateValueObject(b, "Description", value.NewString("base"))
	if err != nil {
		t.Fatal(err)
	}
	a := mustCreate(t, en, "Data", "A")
	tx := en.BeginTx()
	if err := en.SetValue(d, value.NewInteger(1)); err == nil {
		t.Fatal("kind mismatch accepted")
	}
	if _, err := en.CreateObject("Data", "A"); !errors.Is(err, ErrDuplicateName) {
		t.Fatalf("duplicate create: got %v, want ErrDuplicateName", err)
	}
	if err := stage(en, tx, func() error { return en.SetValue(d, value.NewString("tx")) }); err != nil {
		t.Errorf("tx SetValue after a refused write: %v", err)
	}
	if err := stage(en, tx, func() error { return en.Delete(a) }); err != nil {
		t.Errorf("tx Delete after a refused create: %v", err)
	}
	if _, err := en.CommitTx(tx); err != nil {
		t.Fatal(err)
	}
}
