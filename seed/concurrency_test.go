package seed

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentAccess hammers one database from several goroutines; run
// under -race this validates the facade's locking discipline. SEED stays
// logically single-user — operations serialize — but the API must be safe.
func TestConcurrentAccess(t *testing.T) {
	db := memDB(t, Figure3Schema())
	const workers = 8
	const perWorker = 100
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				name := fmt.Sprintf("W%dN%d", w, i)
				id, err := db.CreateObject("Data", name)
				if err != nil {
					errs <- err
					return
				}
				if _, err := db.CreateValueObject(id, "Description", NewString(name)); err != nil {
					errs <- err
					return
				}
				// Interleave reads.
				if _, ok := db.GetObject(name); !ok {
					errs <- fmt.Errorf("own object %s invisible", name)
					return
				}
				_ = db.Stats()
				if i%25 == 0 {
					_ = db.Completeness()
				}
			}
			errs <- nil
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := db.Stats().Core.Objects; got != workers*perWorker*2 {
		t.Errorf("objects = %d, want %d", got, workers*perWorker*2)
	}
	// Versions interleaved with reads from another goroutine.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			v := db.View()
			_ = v.Objects()
		}
	}()
	for i := 0; i < 10; i++ {
		if _, err := db.SaveVersion(fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
		_, _ = db.CreateObject("Action", fmt.Sprintf("Post%d", i))
	}
	<-done
}

// TestSnapshotViewStable: View returns an immutable snapshot pinned at call
// time — later mutations are invisible through it, and a fresh View sees
// them.
func TestSnapshotViewStable(t *testing.T) {
	db := memDB(t, Figure3Schema())
	alarms, err := db.CreateObject("Data", "Alarms")
	if err != nil {
		t.Fatal(err)
	}
	desc, err := db.CreateValueObject(alarms, "Description", NewString("old"))
	if err != nil {
		t.Fatal(err)
	}

	v := db.View()

	if err := db.SetValue(desc, NewString("new")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateObject("Action", "Later"); err != nil {
		t.Fatal(err)
	}

	if o, ok := v.Object(desc); !ok || o.Value.Str() != "old" {
		t.Errorf("pinned snapshot shows %q, want \"old\"", o.Value.Str())
	}
	if _, ok := v.ObjectByName("Later"); ok {
		t.Error("pinned snapshot sees an object created after the pin")
	}
	fresh := db.View()
	if o, _ := fresh.Object(desc); o.Value.Str() != "new" {
		t.Errorf("fresh snapshot shows %q, want \"new\"", o.Value.Str())
	}
	if _, ok := fresh.ObjectByName("Later"); !ok {
		t.Error("fresh snapshot misses the new object")
	}
}

// TestTransactionInvisibleUntilCommit: while a transaction is open, View
// keeps serving the last committed state; path resolution for updates sees
// the transaction's own effects (the server's check-in path relies on
// both).
func TestTransactionInvisibleUntilCommit(t *testing.T) {
	db := memDB(t, Figure3Schema())
	alarms, _ := db.CreateObject("Data", "Alarms")
	desc, err := db.CreateValueObject(alarms, "Description", NewString("committed"))
	if err != nil {
		t.Fatal(err)
	}

	tx, err := db.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.SetValue(desc, NewString("in-flight")); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.CreateObject("Data", "Mid"); err != nil {
		t.Fatal(err)
	}

	// Readers see the pre-transaction state.
	if o, _ := db.View().Object(desc); o.Value.Str() != "committed" {
		t.Errorf("mid-transaction snapshot shows %q, want \"committed\"", o.Value.Str())
	}
	if _, ok := db.View().ObjectByName("Mid"); ok {
		t.Error("mid-transaction snapshot sees an uncommitted object")
	}
	// The transaction itself can address what it created; the database's
	// own resolution, like its views, cannot.
	if _, err := tx.ResolvePath("Mid"); err != nil {
		t.Errorf("in-transaction path resolution: %v", err)
	}
	if _, err := db.ResolvePath("Mid"); err == nil {
		t.Error("database path resolution sees an uncommitted object")
	}

	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if o, _ := db.View().Object(desc); o.Value.Str() != "in-flight" {
		t.Errorf("post-commit snapshot shows %q, want \"in-flight\"", o.Value.Str())
	}
	if _, ok := db.View().ObjectByName("Mid"); !ok {
		t.Error("post-commit snapshot misses the committed object")
	}
}

// TestSnapshotsNeverTorn hammers snapshot reads against a transactional
// writer: the writer updates a group of values to one common tag per
// transaction, and every reader-observed snapshot must show all group
// members equal — a mixed group is a torn (half-applied) read. Run under
// -race this also validates the RWMutex discipline.
func TestSnapshotsNeverTorn(t *testing.T) {
	db := memDB(t, Figure3Schema())
	doc, err := db.CreateObject("Data", "Doc")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := db.CreateSubObject(doc, "Text")
	body, _ := db.CreateSubObject(text, "Body")
	const group = 8
	ids := make([]ID, group)
	for i := range ids {
		if ids[i], err = db.CreateValueObject(body, "Keywords", NewString("tag-0")); err != nil {
			t.Fatal(err)
		}
	}

	const rounds = 200
	var stop atomic.Bool
	writerErr := make(chan error, 1)
	go func() {
		defer stop.Store(true)
		for i := 1; i <= rounds; i++ {
			tx, err := db.BeginTx()
			if err != nil {
				writerErr <- err
				return
			}
			tag := fmt.Sprintf("tag-%d", i)
			for _, id := range ids {
				if err := tx.SetValue(id, NewString(tag)); err != nil {
					writerErr <- err
					return
				}
			}
			if err := tx.Commit(); err != nil {
				writerErr <- err
				return
			}
		}
		writerErr <- nil
	}()

	const readers = 4
	var wg sync.WaitGroup
	readerErrs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				v := db.View()
				var first string
				for i, id := range ids {
					o, ok := v.Object(id)
					if !ok {
						readerErrs <- fmt.Errorf("keyword %d invisible", id)
						return
					}
					if i == 0 {
						first = o.Value.Str()
					} else if got := o.Value.Str(); got != first {
						readerErrs <- fmt.Errorf("torn snapshot: keyword[0]=%q keyword[%d]=%q", first, i, got)
						return
					}
				}
			}
			readerErrs <- nil
		}()
	}
	wg.Wait()
	if err := <-writerErr; err != nil {
		t.Fatalf("writer: %v", err)
	}
	close(readerErrs)
	for err := range readerErrs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if o, _ := db.View().Object(ids[0]); o.Value.Str() != fmt.Sprintf("tag-%d", rounds) {
		t.Errorf("final value = %q, want tag-%d", o.Value.Str(), rounds)
	}
}

// TestWholeDatabaseOpsRejectedMidTransaction: version freezes, version
// selection, schema evolution, and compaction would capture or clobber a
// half-applied batch, so they are refused while a transaction is open.
func TestWholeDatabaseOpsRejectedMidTransaction(t *testing.T) {
	db := memDB(t, Figure3Schema())
	if _, err := db.CreateObject("Data", "Doc"); err != nil {
		t.Fatal(err)
	}
	v1, err := db.SaveVersion("base")
	if err != nil {
		t.Fatal(err)
	}

	tx, err := db.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.CreateObject("Data", "InFlight"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.SaveVersion("mid-tx"); !errors.Is(err, ErrTxOpen) {
		t.Errorf("SaveVersion mid-tx: %v, want ErrTxOpen", err)
	}
	if err := db.SelectVersionDiscard(v1); !errors.Is(err, ErrTxOpen) {
		t.Errorf("SelectVersionDiscard mid-tx: %v, want ErrTxOpen", err)
	}
	if err := db.DeleteVersion(v1); !errors.Is(err, ErrTxOpen) {
		t.Errorf("DeleteVersion mid-tx: %v, want ErrTxOpen", err)
	}
	if err := db.EvolveSchema(func(s *Schema) error { return nil }); !errors.Is(err, ErrTxOpen) {
		t.Errorf("EvolveSchema mid-tx: %v, want ErrTxOpen", err)
	}
	if err := db.Compact(); !errors.Is(err, ErrTxOpen) {
		t.Errorf("Compact mid-tx: %v, want ErrTxOpen", err)
	}
	if _, err := db.Vacuum(); !errors.Is(err, ErrTxOpen) {
		t.Errorf("Vacuum mid-tx: %v, want ErrTxOpen", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// After the commit everything is allowed again.
	if _, err := db.SaveVersion("after"); err != nil {
		t.Errorf("SaveVersion after commit: %v", err)
	}
}
