package seed

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/pattern"
)

// Tests for the concurrent transaction handles (BeginTx): disjoint staging
// from several goroutines, atomic visibility, conflict surfacing, and the
// whole-database barrier operations rejecting open transactions.

func TestTxHandlesConcurrentDisjointCommits(t *testing.T) {
	db := memDB(t, Figure3Schema())
	const writers = 4
	const rounds = 25
	roots := make([]ID, writers)
	descs := make([]ID, writers)
	for i := range roots {
		r, err := db.CreateObject("Data", fmt.Sprintf("Obj%d", i))
		if err != nil {
			t.Fatal(err)
		}
		d, err := db.CreateValueObject(r, "Description", NewString("r-1"))
		if err != nil {
			t.Fatal(err)
		}
		roots[i], descs[i] = r, d
	}

	var wg sync.WaitGroup
	errCh := make(chan error, writers+1)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				tx, err := db.BeginTx()
				if err != nil {
					errCh <- err
					return
				}
				if err := tx.SetValue(descs[w], NewString(fmt.Sprintf("r%d", r))); err != nil {
					errCh <- fmt.Errorf("writer %d round %d: %w", w, r, err)
					_ = tx.Rollback()
					return
				}
				if _, err := tx.CreateValueObject(roots[w], "Text", NewString("t")); err == nil {
					// Text is a structured class in figure 3; a value there
					// must fail — and the failed operation must not poison
					// the rest of the batch.
					errCh <- fmt.Errorf("writer %d: value on structured Text accepted", w)
					_ = tx.Rollback()
					return
				}
				if err := tx.Commit(); err != nil {
					errCh <- fmt.Errorf("writer %d round %d commit: %w", w, r, err)
					return
				}
			}
			errCh <- nil
		}(w)
	}
	// A reader thrashing views concurrently: every snapshot must hold a
	// well-formed value for every description (never a half state).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			v := db.View()
			for w := 0; w < writers; w++ {
				o, ok := v.Object(descs[w])
				if !ok || o.Value.Str() == "" {
					errCh <- fmt.Errorf("reader: torn description for writer %d", w)
					return
				}
			}
		}
		errCh <- nil
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}
	for w := 0; w < writers; w++ {
		o, _ := db.View().Object(descs[w])
		if o.Value.Str() != fmt.Sprintf("r%d", rounds-1) {
			t.Errorf("writer %d final value %q", w, o.Value.Str())
		}
	}
}

func TestTxConflictSurfacesAndRetries(t *testing.T) {
	db := memDB(t, Figure3Schema())
	r, _ := db.CreateObject("Data", "Shared")
	d, err := db.CreateValueObject(r, "Description", NewString("base"))
	if err != nil {
		t.Fatal(err)
	}

	tx1, err := db.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	tx2, err := db.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx1.SetValue(d, NewString("one")); err != nil {
		t.Fatal(err)
	}
	if err := tx2.SetValue(d, NewString("two")); !errors.Is(err, ErrTxConflict) {
		t.Fatalf("overlap: got %v, want ErrTxConflict", err)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Rollback(); err != nil {
		t.Fatal(err)
	}
	// Retry after the conflict: a fresh transaction sees the committed
	// value and succeeds.
	tx3, err := db.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx3.SetValue(d, NewString("two")); err != nil {
		t.Fatalf("retry: %v", err)
	}
	if err := tx3.Commit(); err != nil {
		t.Fatal(err)
	}
	o, _ := db.View().Object(d)
	if o.Value.Str() != "two" {
		t.Errorf("final value %q, want %q", o.Value.Str(), "two")
	}
	// Finished handles reject further staging.
	if err := tx3.SetValue(d, NewString("late")); !errors.Is(err, ErrTxDone) {
		t.Errorf("staging on finished tx: got %v, want ErrTxDone", err)
	}
}

// TestTxResolveAllocsIndependentOfRelationships: staging an op and then
// resolving a path in the transaction allocates the same on a database with
// 20 relationships as on one with 2 000. The splice over the live state
// costs the inherited information (none here), not the relationship count.
// Bytes are compared as well as allocation counts: listing every
// relationship is one allocation whatever its length.
func TestTxResolveAllocsIndependentOfRelationships(t *testing.T) {
	type cost struct{ allocs, bytes uint64 }
	measure := func(rels int) cost {
		db := memDB(t, Figure3Schema())
		desc, err := db.CreateValueObject(create(t, db, "Data", "Root"), "Description", NewString("d"))
		if err != nil {
			t.Fatal(err)
		}
		sink := create(t, db, "Action", "Sink")
		for i := 0; i < rels; i++ {
			from := create(t, db, "Data", fmt.Sprintf("D%d", i))
			if _, err := db.CreateRelationship("Access", map[string]ID{"from": from, "by": sink}); err != nil {
				t.Fatal(err)
			}
		}
		tx, err := db.BeginTx()
		if err != nil {
			t.Fatal(err)
		}
		defer tx.Rollback()
		staged := NewString("staged")
		step := func() {
			if err := tx.SetValue(desc, staged); err != nil {
				t.Fatal(err)
			}
			if id, err := tx.ResolvePath("Root.Description"); err != nil || id != desc {
				t.Fatalf("resolve = %d, %v; want %d", id, err, desc)
			}
		}
		const runs = 50
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as testing.AllocsPerRun does
		step()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			step()
		}
		runtime.ReadMemStats(&after)
		return cost{(after.Mallocs - before.Mallocs) / runs, (after.TotalAlloc - before.TotalAlloc) / runs}
	}
	few, many := measure(20), measure(2000)
	// 1 KiB of slack for runtime noise; the IDs of 2 000 relationships
	// alone are 16 KB.
	if few.allocs != many.allocs || many.bytes > few.bytes+1024 {
		t.Errorf("stage + resolve per run: %d allocs / %d B at 20 relationships, %d allocs / %d B at 2000",
			few.allocs, few.bytes, many.allocs, many.bytes)
	}
}

// TestTxResolvesThroughInheritedData: a transaction resolves a path through
// a pattern's sub-object inherited by X, stops resolving it once it stages
// the deletion of the inherits-relationship, and resolves it again in a
// fresh transaction after the rollback.
func TestTxResolvesThroughInheritedData(t *testing.T) {
	db := memDB(t, Figure3Schema())
	p, err := db.CreatePatternObject("Data", "P")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateValueObject(p, "Description", NewString("inherited")); err != nil {
		t.Fatal(err)
	}
	link, err := db.Inherit(p, create(t, db, "Data", "X"))
	if err != nil {
		t.Fatal(err)
	}
	tx, err := db.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	virtual, err := tx.ResolvePath("X.Description")
	if err != nil || !pattern.IsVirtualID(virtual) {
		t.Fatalf("resolve before disinherit = %d, %v; want a virtual ID", virtual, err)
	}
	if err := tx.Delete(link); err != nil {
		t.Fatal(err)
	}
	if id, err := tx.ResolvePath("X.Description"); err == nil {
		t.Errorf("resolve after staged disinherit = %d, want an error", id)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	tx, err = db.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	if id, err := tx.ResolvePath("X.Description"); err != nil || id != virtual {
		t.Errorf("resolve after rollback = %d, %v; want %d", id, err, virtual)
	}
}

func TestBarrierOpsRejectOpenTx(t *testing.T) {
	db := memDB(t, Figure3Schema())
	if _, err := db.CreateObject("Data", "A"); err != nil {
		t.Fatal(err)
	}
	tx, err := db.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.SaveVersion("mid-tx"); !errors.Is(err, ErrTxOpen) {
		t.Errorf("SaveVersion mid-tx: got %v, want ErrTxOpen", err)
	}
	if err := db.Compact(); !errors.Is(err, ErrTxOpen) {
		t.Errorf("Compact mid-tx: got %v, want ErrTxOpen", err)
	}
	if err := db.EvolveSchema(func(s *Schema) error { return nil }); !errors.Is(err, ErrTxOpen) {
		t.Errorf("EvolveSchema mid-tx: got %v, want ErrTxOpen", err)
	}
	if _, err := db.Vacuum(); !errors.Is(err, ErrTxOpen) {
		t.Errorf("Vacuum mid-tx: got %v, want ErrTxOpen", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.SaveVersion("after"); err != nil {
		t.Errorf("SaveVersion after commit: %v", err)
	}
}

// TestTxConcurrentDurableCommits drives file-backed group-committed
// transactions from several goroutines and proves by reopen that every
// acked batch survives whole.
func TestTxConcurrentDurableCommits(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Schema: Figure3Schema(), SyncPolicy: SyncGroupCommit})
	if err != nil {
		t.Fatal(err)
	}
	const writers = 4
	const rounds = 10
	descs := make([]ID, writers)
	for i := range descs {
		r, err := db.CreateObject("Data", fmt.Sprintf("Obj%d", i))
		if err != nil {
			t.Fatal(err)
		}
		d, err := db.CreateValueObject(r, "Description", NewString("init"))
		if err != nil {
			t.Fatal(err)
		}
		descs[i] = d
	}
	var wg sync.WaitGroup
	errCh := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				tx, err := db.BeginTx()
				if err != nil {
					errCh <- err
					return
				}
				// Two engine records per batch record, staged under
				// concurrent group commit.
				sub, err := tx.CreateSubObject(descs[w], "")
				if err == nil {
					_ = sub // Description is a leaf; creation must fail
					errCh <- fmt.Errorf("sub-object under leaf accepted")
					return
				}
				if err := tx.SetValue(descs[w], NewString(fmt.Sprintf("w%d-r%d", w, r))); err != nil {
					errCh <- err
					return
				}
				if _, err := tx.CreateObject("Action", fmt.Sprintf("Act%dx%d", w, r)); err != nil {
					errCh <- err
					return
				}
				if err := tx.Commit(); err != nil {
					errCh <- err
					return
				}
			}
			errCh <- nil
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	v := re.View()
	for w := 0; w < writers; w++ {
		o, ok := v.Object(descs[w])
		if !ok || o.Value.Str() != fmt.Sprintf("w%d-r%d", w, rounds-1) {
			t.Errorf("writer %d replayed value %q", w, o.Value.Str())
		}
		for r := 0; r < rounds; r++ {
			if _, ok := v.ObjectByName(fmt.Sprintf("Act%dx%d", w, r)); !ok {
				t.Errorf("acked object Act%dx%d lost on replay", w, r)
			}
		}
	}
}
