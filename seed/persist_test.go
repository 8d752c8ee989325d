package seed

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/storage"
)

func fixedClock() func() time.Time {
	t0 := time.Date(1986, 2, 5, 12, 0, 0, 0, time.UTC)
	n := 0
	return func() time.Time {
		n++
		return t0.Add(time.Duration(n) * time.Minute)
	}
}

func openDB(t testing.TB, dir string, opts Options) *Database {
	t.Helper()
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestOpenFreshRequiresSchema(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "db"), Options{}); !errors.Is(err, ErrNoSchema) {
		t.Fatalf("Open without schema: %v", err)
	}
}

func TestReopenReplaysLog(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db := openDB(t, dir, Options{Schema: Figure3Schema(), Clock: fixedClock()})

	alarms := create(t, db, "Data", "Alarms")
	sensor := create(t, db, "Action", "Sensor")
	acc, err := db.CreateRelationship("Access", map[string]ID{"from": alarms, "by": sensor})
	if err != nil {
		t.Fatal(err)
	}
	text, _ := db.CreateSubObject(alarms, "Text")
	sel, _ := db.CreateValueObject(text, "Selector", NewString("Representation"))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := openDB(t, dir, Options{Clock: fixedClock()})
	defer db2.Close()
	v := db2.View()
	if _, ok := v.ObjectByName("Alarms"); !ok {
		t.Fatal("Alarms lost on reopen")
	}
	if o, ok := v.Object(sel); !ok || o.Value.Str() != "Representation" {
		t.Errorf("Selector after reopen = %v %v", o.Value, ok)
	}
	if r, ok := v.Relationship(acc); !ok || r.Assoc.Name() != "Access" {
		t.Errorf("Access after reopen: %v", ok)
	}
	// Mutations continue: IDs never collide.
	id, err := db2.CreateObject("Action", "New")
	if err != nil {
		t.Fatal(err)
	}
	if id <= sel {
		t.Errorf("ID %d not above high-water mark %d", id, sel)
	}
}

func TestReopenReplaysVersionsAndReclassify(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db := openDB(t, dir, Options{Schema: Figure3Schema(), Clock: fixedClock()})
	alarms := create(t, db, "Thing", "Alarms")
	v1, err := db.SaveVersion("vague")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Reclassify(alarms, "Data"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.SaveVersion("precise"); err != nil {
		t.Fatal(err)
	}
	// Branch an alternative.
	if err := db.SelectVersion(v1); err != nil {
		t.Fatal(err)
	}
	if err := db.Reclassify(alarms, "Action"); err != nil {
		t.Fatal(err)
	}
	alt, err := db.SaveVersion("alternative interpretation")
	if err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2 := openDB(t, dir, Options{Clock: fixedClock()})
	defer db2.Close()
	infos := db2.Versions()
	if len(infos) != 3 {
		t.Fatalf("versions after reopen = %d", len(infos))
	}
	base, ok := db2.BaseVersion()
	if !ok || !base.Num.Equal(alt) {
		t.Errorf("base after reopen = %v", base.Num)
	}
	// Current state is the alternative (Alarms is an Action).
	if o, ok := db2.View().ObjectByName("Alarms"); ok {
		obj, _ := db2.View().Object(o)
		if obj.Class.QualifiedName() != "Action" {
			t.Errorf("class after reopen = %s", obj.Class.QualifiedName())
		}
	} else {
		t.Fatal("Alarms lost")
	}
	// The trunk version still shows Data.
	view2, err := db2.VersionView(MustVersion("2.0"))
	if err != nil {
		t.Fatal(err)
	}
	id, _ := view2.ObjectByName("Alarms")
	o, _ := view2.Object(id)
	if o.Class.QualifiedName() != "Data" {
		t.Errorf("trunk class = %s", o.Class.QualifiedName())
	}
}

func TestReopenReplaysPatternsAndDeletes(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db := openDB(t, dir, Options{Schema: Figure3Schema(), Clock: fixedClock()})
	pat, _ := db.CreatePatternObject("Action", "PO1")
	common := create(t, db, "Data", "Common")
	if _, err := db.CreateRelationship("Access", map[string]ID{"from": common, "by": pat}); err != nil {
		t.Fatal(err)
	}
	variant := create(t, db, "Action", "VariantA")
	if _, err := db.Inherit(pat, variant); err != nil {
		t.Fatal(err)
	}
	doomed := create(t, db, "Data", "Doomed")
	if err := db.Delete(doomed); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2 := openDB(t, dir, Options{Clock: fixedClock()})
	defer db2.Close()
	if got := db2.InheritorsOf(pat); len(got) != 1 || got[0] != variant {
		t.Errorf("inheritors after reopen = %v", got)
	}
	if got := len(db2.View().RelationshipsOf(variant)); got != 1 {
		t.Errorf("spliced rels after reopen = %d", got)
	}
	if _, ok := db2.View().ObjectByName("Doomed"); ok {
		t.Error("deleted object resurrected")
	}
	if _, ok := db2.View().ObjectByName("PO1"); ok {
		t.Error("pattern visible after reopen")
	}
}

func TestCompactionRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db := openDB(t, dir, Options{Schema: Figure3Schema(), Clock: fixedClock()})
	alarms := create(t, db, "Data", "Alarms")
	_, _ = db.CreateValueObject(alarms, "Description", NewString("doc"))
	v1, _ := db.SaveVersion("one")
	sensor := create(t, db, "Action", "Sensor")
	_, _ = db.CreateRelationship("Access", map[string]ID{"from": alarms, "by": sensor})
	// Unsaved changes at compaction time must survive too.
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	// Post-compaction writes land in the fresh WAL.
	create(t, db, "Action", "PostCompact")
	db.Close()

	db2 := openDB(t, dir, Options{Clock: fixedClock()})
	defer db2.Close()
	for _, name := range []string{"Alarms", "Sensor", "PostCompact"} {
		if _, ok := db2.View().ObjectByName(name); !ok {
			t.Errorf("%s lost after compaction", name)
		}
	}
	if len(db2.Versions()) != 1 {
		t.Fatalf("versions after compaction = %d", len(db2.Versions()))
	}
	// Version view still works from the snapshot-encoded tree.
	view, err := db2.VersionView(v1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := view.ObjectByName("Alarms"); !ok {
		t.Error("version view lost Alarms")
	}
	if _, ok := view.ObjectByName("Sensor"); ok {
		t.Error("version view shows post-version object")
	}
	// The dirty set survived: saving now only freezes post-v1 changes.
	v2, err := db2.SaveVersion("two")
	if err != nil {
		t.Fatal(err)
	}
	infos := db2.Versions()
	if !infos[len(infos)-1].Num.Equal(v2) {
		t.Fatalf("latest version = %v", infos[len(infos)-1].Num)
	}
	if infos[len(infos)-1].DeltaSize != 3 { // Sensor, Access, PostCompact
		t.Errorf("delta after compaction = %d, want 3", infos[len(infos)-1].DeltaSize)
	}
}

func TestSchemaEvolutionPersists(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db := openDB(t, dir, Options{Schema: Figure3Schema(), Clock: fixedClock()})
	create(t, db, "Data", "Alarms")
	_, _ = db.SaveVersion("v1 schema1")
	err := db.EvolveSchema(func(s *Schema) error {
		_, err := s.AddClass("Module")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	create(t, db, "Module", "Kernel")
	db.Close()

	db2 := openDB(t, dir, Options{Clock: fixedClock()})
	if db2.SchemaVersion() != 2 {
		t.Fatalf("schema version after reopen = %d", db2.SchemaVersion())
	}
	if _, ok := db2.View().ObjectByName("Kernel"); !ok {
		t.Error("Module object lost")
	}
	// Compact (snapshot now carries two schemas), reopen again.
	if err := db2.Compact(); err != nil {
		t.Fatal(err)
	}
	db2.Close()
	db3 := openDB(t, dir, Options{Clock: fixedClock()})
	defer db3.Close()
	if db3.SchemaVersion() != 2 {
		t.Fatalf("schema version after compaction = %d", db3.SchemaVersion())
	}
	info := db3.Versions()[0]
	if info.SchemaVersion != 1 {
		t.Errorf("old version's schema = %d", info.SchemaVersion)
	}
	if _, err := db3.SchemaAt(1); err != nil {
		t.Errorf("historical schema lost: %v", err)
	}
}

func TestTornLogRecovery(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db := openDB(t, dir, Options{Schema: Figure2Schema(), Clock: fixedClock()})
	create(t, db, "Data", "Good")
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	db.Close()
	// Simulate a crash mid-append: garbage at the tail of the last (and
	// here only) WAL segment.
	wal := filepath.Join(dir, storage.SegmentFile(1))
	f, err := os.OpenFile(wal, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{42, 0, 0, 0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	db2 := openDB(t, dir, Options{Clock: fixedClock()})
	defer db2.Close()
	if _, ok := db2.View().ObjectByName("Good"); !ok {
		t.Error("intact record lost after torn tail")
	}
	// Appending after recovery works.
	create(t, db2, "Data", "AfterCrash")
}

func TestAutoCompaction(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db := openDB(t, dir, Options{Schema: Figure2Schema(), Clock: fixedClock(), CompactAfter: 2048})
	for i := 0; i < 200; i++ {
		if _, err := db.CreateObject("Data", "Obj"+itoa(i)); err != nil {
			t.Fatal(err)
		}
	}
	if sz := db.Stats().LogBytes; sz > 4096 {
		t.Errorf("auto-compaction did not keep the log bounded: %d bytes", sz)
	}
	db.Close()
	db2 := openDB(t, dir, Options{Clock: fixedClock()})
	defer db2.Close()
	if got := db2.Stats().Core.Objects; got != 200 {
		t.Errorf("objects after auto-compaction reopen = %d", got)
	}
}

// lastSegment returns the path and index of the highest-numbered WAL
// segment in dir.
func lastSegment(t *testing.T, dir string) (string, uint64) {
	t.Helper()
	var last uint64
	for n := uint64(1); ; n++ {
		if _, err := os.Stat(filepath.Join(dir, storage.SegmentFile(n))); err != nil {
			break
		}
		last = n
	}
	if last == 0 {
		t.Fatal("no WAL segments found")
	}
	return filepath.Join(dir, storage.SegmentFile(last)), last
}

// tinySegDB opens a database whose WAL rotates every 512 bytes and fills it
// with enough objects to span several segments.
func tinySegDB(t *testing.T, dir string) *Database {
	t.Helper()
	db := openDB(t, dir, Options{Schema: Figure2Schema(), Clock: fixedClock(), SegmentSize: 512})
	for i := 0; i < 60; i++ {
		create(t, db, "Data", "Seg"+itoa(i))
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestSegmentedWALReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db := tinySegDB(t, dir)
	if segs := db.Stats().LogSegments; segs < 2 {
		t.Fatalf("expected multiple WAL segments, got %d", segs)
	}
	db.Close()

	db2 := openDB(t, dir, Options{Clock: fixedClock(), SegmentSize: 512})
	defer db2.Close()
	if got := db2.Stats().Core.Objects; got != 60 {
		t.Errorf("objects after segmented reopen = %d, want 60", got)
	}
}

func TestTornTailInLastSegmentRecovers(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	tinySegDB(t, dir).Close()
	path, _ := lastSegment(t, dir)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{99, 0, 0, 0, 1}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	db2 := openDB(t, dir, Options{Clock: fixedClock(), SegmentSize: 512})
	defer db2.Close()
	if got := db2.Stats().Core.Objects; got != 60 {
		t.Errorf("objects after torn tail = %d, want 60", got)
	}
}

func TestCorruptSealedSegmentSurfacesErrCorrupt(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	tinySegDB(t, dir).Close()
	// Corrupt a record in the middle of the FIRST (sealed) segment.
	path := filepath.Join(dir, storage.SegmentFile(1))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{Clock: fixedClock(), SegmentSize: 512}); !errors.Is(err, storage.ErrCorrupt) {
		t.Errorf("corrupt sealed segment: %v", err)
	}
}

func TestMissingFinalSegmentSurfacesErrCorrupt(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	tinySegDB(t, dir).Close()
	path, last := lastSegment(t, dir)
	if last < 2 {
		t.Fatalf("need >= 2 segments, got %d", last)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{Clock: fixedClock(), SegmentSize: 512}); !errors.Is(err, storage.ErrCorrupt) {
		t.Errorf("missing final segment: %v", err)
	}
}

func TestGroupCommitPolicy(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db := openDB(t, dir, Options{Schema: Figure2Schema(), Clock: fixedClock(), SyncPolicy: SyncGroupCommit})
	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := db.CreateObject("Data", "G"+itoa(g*10+i)); err != nil {
					errCh <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	db.Close()

	db2 := openDB(t, dir, Options{Clock: fixedClock()})
	defer db2.Close()
	if got := db2.Stats().Core.Objects; got != 40 {
		t.Errorf("objects after group-commit reopen = %d, want 40", got)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "a0"
	}
	s := ""
	for n > 0 {
		s = string(rune('0'+n%10)) + s
		n /= 10
	}
	return "a" + s
}

// TestNoCompactionInsideTransaction: auto-compaction must never run while
// a transaction is open — a snapshot taken mid-batch would persist
// uncommitted operations (and truncate the log before their journal
// records exist), so a rollback could leave phantom data on disk.
func TestNoCompactionInsideTransaction(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	// A threshold small enough that the transaction's operations would
	// trip compaction if it were (wrongly) considered mid-batch.
	db := openDB(t, dir, Options{Schema: Figure3Schema(), Clock: fixedClock(), CompactAfter: 1})

	keep := create(t, db, "Data", "Keep")
	// The tiny threshold compacts eagerly outside transactions; record the
	// snapshot state the transaction must leave untouched.
	preTx, err := os.Stat(filepath.Join(dir, "snapshot.seed"))
	if err != nil {
		t.Fatal(err)
	}
	tx, err := db.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := tx.CreateValueObject(keep, "Description", NewString("doomed")); err != nil {
			// Description is 0..1; only the first create succeeds — use
			// fresh objects instead to generate volume.
			break
		}
	}
	for i := 0; i < 20; i++ {
		if _, err := tx.CreateObject("Data", "Doomed"+string(rune('A'+i))); err != nil {
			t.Fatal(err)
		}
	}
	midTx, err := os.Stat(filepath.Join(dir, "snapshot.seed"))
	if err != nil {
		t.Fatal(err)
	}
	if !midTx.ModTime().Equal(preTx.ModTime()) || midTx.Size() != preTx.Size() {
		t.Fatal("compaction ran inside the open transaction")
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	// Force the deferred compaction on the next committed operation and
	// prove the rolled-back batch never reached disk.
	create(t, db, "Data", "After")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := openDB(t, dir, Options{Clock: fixedClock()})
	defer db2.Close()
	if _, ok := db2.View().ObjectByName("DoomedA"); ok {
		t.Error("rolled-back object persisted to disk")
	}
	if _, err := db2.ResolvePath("Keep.Description"); err == nil {
		t.Error("rolled-back value object persisted to disk")
	}
	for _, name := range []string{"Keep", "After"} {
		if _, ok := db2.View().ObjectByName(name); !ok {
			t.Errorf("committed object %s lost", name)
		}
	}
}

// TestSnapshotFormat1Rejected: the inline-string snapshot layout that
// predates the symbol table is no longer read. A store whose snapshot
// payload announces format 1 must refuse to open, not load as empty.
func TestSnapshotFormat1Rejected(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	st, err := storage.Open(dir, nil, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := codec.NewEncoder(nil)
	e.Uint64(1) // format word
	e.Uint64(1) // nextID
	if err := st.Compact(e.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, Options{Schema: Figure3Schema(), Clock: fixedClock()})
	if err == nil || !strings.Contains(err.Error(), "unsupported snapshot format 1") {
		t.Fatalf("open over a format-1 snapshot: %v", err)
	}
}

// TestCreateValueObjectRefusalLeavesNoTrace: a value the schema refuses
// takes its freshly created sub-object with it — no tombstone, no log
// bytes, no version dirt, no used-up sibling index — whether the write is a
// one-operation transaction or staged in a Tx, before and after a reopen.
func TestCreateValueObjectRefusalLeavesNoTrace(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db := openDB(t, dir, Options{Schema: Figure2Schema(), Clock: fixedClock()})
	d := create(t, db, "Data", "D")
	text, err := db.CreateSubObject(d, "Text")
	if err != nil {
		t.Fatal(err)
	}
	body, err := db.CreateSubObject(text, "Body")
	if err != nil {
		t.Fatal(err)
	}
	refuse := func(db *Database) {
		t.Helper()
		before := db.Stats()
		if _, err := db.CreateValueObject(body, "Keywords", NewInteger(1)); err == nil {
			t.Fatal("one-operation write: integer keyword accepted")
		}
		tx, err := db.BeginTx()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.CreateValueObject(body, "Keywords", NewInteger(1)); err == nil {
			t.Fatal("Tx write: integer keyword accepted")
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if after := db.Stats(); after.Core != before.Core || after.LogBytes != before.LogBytes {
			t.Errorf("refusals changed the state: core %+v -> %+v, log %d -> %d bytes",
				before.Core, after.Core, before.LogBytes, after.LogBytes)
		}
	}
	accept := func(db *Database, want string) {
		t.Helper()
		id, err := db.CreateValueObject(body, "Keywords", NewString("k"))
		if err != nil {
			t.Fatal(err)
		}
		if p, _ := db.PathOf(id); p.String() != want {
			t.Errorf("accepted keyword at %q, want %q", p, want)
		}
	}
	refuse(db)
	accept(db, "D.Text[0].Body.Keywords[0]")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = openDB(t, dir, Options{Clock: fixedClock()})
	defer db.Close()
	if s := db.Stats().Core; s.DeletedObjects != 0 || s.Objects != 4 {
		t.Errorf("after reopen: %+v, want 4 objects and no tombstone", s)
	}
	refuse(db)
	accept(db, "D.Text[0].Body.Keywords[1]")
}
