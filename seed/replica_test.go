package seed

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/storage"
)

// drainTap copies every record a subscription has buffered right now; the
// caller mutated the primary synchronously, so the tap is already fed.
func drainTap(t *testing.T, sub *storage.Subscription, want int) [][]byte {
	t.Helper()
	var recs [][]byte
	for len(recs) < want {
		batch, err := sub.Next(nil)
		if err != nil {
			t.Fatalf("tap Next: %v", err)
		}
		recs = append(recs, batch...)
	}
	return recs
}

// bootstrapReplica subscribes to a primary and replays the bootstrap into a
// fresh follower — the in-process equivalent of the wire feed. The caller
// owns the returned subscription's live tap.
func bootstrapReplica(t *testing.T, primary *Database) (*Database, *storage.Subscription) {
	t.Helper()
	sub, _, err := primary.SubscribeLog()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sub.Close)
	rep := NewFollower()
	snap, _ := sub.Snapshot()
	if err := rep.ApplyLogSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	for _, seg := range sub.SealedSegments() {
		var recs [][]byte
		if err := sub.ReadSegment(seg, func(p []byte) error {
			recs = append(recs, append([]byte(nil), p...))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := rep.ApplyLogRecords(recs); err != nil {
			t.Fatal(err)
		}
	}
	sub.EndBootstrap()
	return rep, sub
}

// digestsEqual asserts the replica-vs-primary state differential.
func digestsEqual(t *testing.T, primary, replica *Database, when string) {
	t.Helper()
	pd, err := primary.StateDigest()
	if err != nil {
		t.Fatal(err)
	}
	rd, err := replica.StateDigest()
	if err != nil {
		t.Fatal(err)
	}
	if pd != rd {
		t.Fatalf("%s: state digests diverge: primary %s, replica %s", when, pd, rd)
	}
}

// TestReplicaBootstrapConverges: snapshot + sealed segments reproduce the
// primary's exact logical state, including versions and dirty marks.
func TestReplicaBootstrapConverges(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db := openDB(t, dir, Options{Schema: Figure3Schema(), Clock: fixedClock()})
	defer db.Close()

	alarms := create(t, db, "Data", "Alarms")
	sensor := create(t, db, "Action", "Sensor")
	if _, err := db.CreateRelationship("Access", map[string]ID{"from": alarms, "by": sensor}); err != nil {
		t.Fatal(err)
	}
	text, _ := db.CreateSubObject(alarms, "Text")
	if _, err := db.CreateValueObject(text, "Selector", NewString("Representation")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.SaveVersion("v1"); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete(sensor); err != nil {
		t.Fatal(err)
	}

	rep, _ := bootstrapReplica(t, db)
	digestsEqual(t, db, rep, "after bootstrap")

	// The replica serves the read surface.
	v := rep.View()
	if _, ok := v.ObjectByName("Alarms"); !ok {
		t.Fatal("replica lost Alarms")
	}
	if got := len(rep.Versions()); got != 1 {
		t.Fatalf("replica versions = %d, want 1", got)
	}
}

// TestReplicaLiveApplyConverges: live tap records applied one call at a
// time — a transaction is one record, so it can never be split across
// ApplyLogRecords calls — step the replica through exactly the primary's
// committed states, the transaction surfacing whole.
func TestReplicaLiveApplyConverges(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db := openDB(t, dir, Options{Schema: Figure3Schema(), Clock: fixedClock()})
	defer db.Close()
	create(t, db, "Data", "Alarms")
	rep, sub := bootstrapReplica(t, db)
	digestsEqual(t, db, rep, "after bootstrap")

	// The primary's digest after each commit: a two-record transaction,
	// then a one-operation write.
	var want []string
	capture := func() {
		d, err := db.StateDigest()
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, d)
	}
	tx, err := db.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	handler, err := tx.CreateObject("Data", "Handler")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.CreateSubObject(handler, "Text"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	capture()
	if _, err := db.CreateObject("Data", "Tail"); err != nil {
		t.Fatal(err)
	}
	capture()

	recs := drainTap(t, sub, len(want))
	if len(recs) != len(want) {
		t.Fatalf("tap shipped %d records for %d commits", len(recs), len(want))
	}
	for i, rec := range recs {
		if err := rep.ApplyLogRecords([][]byte{rec}); err != nil {
			t.Fatal(err)
		}
		if d, err := rep.StateDigest(); err != nil || d != want[i] {
			t.Fatalf("after record %d the replica is not at commit %d (%v)", i, i, err)
		}
	}
	if _, ok := rep.View().ObjectByName("Handler"); !ok {
		t.Fatal("replica missing transacted object")
	}
}

// TestReplicaRefusesMutations: every mutating entry point on a follower
// answers ErrNotPrimary, and the primary-only SubscribeLog refuses
// chaining off a follower.
func TestReplicaRefusesMutations(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db := openDB(t, dir, Options{Schema: Figure3Schema(), Clock: fixedClock()})
	defer db.Close()
	alarms := create(t, db, "Data", "Alarms")
	rep, _ := bootstrapReplica(t, db)

	checks := map[string]error{
		"CreateObject": func() error { _, err := rep.CreateObject("Data", "X"); return err }(),
		"SetValue":     rep.SetValue(alarms, NewString("x")),
		"Delete":       rep.Delete(alarms),
		"BeginTx":      func() error { _, err := rep.BeginTx(); return err }(),
		"SaveVersion":  func() error { _, err := rep.SaveVersion("v"); return err }(),
		"SelectVersion": func() error {
			return rep.SelectVersion(VersionNumber{1})
		}(),
		"DeleteVersion": rep.DeleteVersion(VersionNumber{1}),
		"Vacuum":        func() error { _, err := rep.Vacuum(); return err }(),
		"Compact":       rep.Compact(),
		"SubscribeLog":  func() error { _, _, err := rep.SubscribeLog(); return err }(),
	}
	for name, err := range checks {
		if !errors.Is(err, ErrNotPrimary) {
			t.Errorf("%s on follower = %v, want ErrNotPrimary", name, err)
		}
	}

	// Apply calls are follower-only in the other direction.
	if err := db.ApplyLogRecords(nil); !errors.Is(err, ErrNotReplica) {
		t.Errorf("ApplyLogRecords on primary = %v, want ErrNotReplica", err)
	}
	// And an in-memory primary has no log to ship.
	mem, err := NewMemory(Figure3Schema())
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	if _, _, err := mem.SubscribeLog(); !errors.Is(err, ErrNoLog) {
		t.Errorf("SubscribeLog on in-memory db = %v, want ErrNoLog", err)
	}
}

// TestReplicaCompactShedsInternChurn (intern-table leak regression): a long
// churn of unique short values grows the engine's append-only value intern
// table without bound; Compact must rebuild the tables from live rows and
// shed the dead entries.
func TestReplicaCompactShedsInternChurn(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	// CompactAfter large enough that compaction happens only when asked.
	db := openDB(t, dir, Options{Schema: Figure3Schema(), Clock: fixedClock(), CompactAfter: 1 << 30})
	defer db.Close()

	alarms := create(t, db, "Data", "Alarms")
	text, err := db.CreateSubObject(alarms, "Text")
	if err != nil {
		t.Fatal(err)
	}
	val, err := db.CreateValueObject(text, "Selector", NewString("v-000000"))
	if err != nil {
		t.Fatal(err)
	}
	const churn = 500
	for i := 1; i <= churn; i++ {
		if err := db.SetValue(val, NewString(fmt.Sprintf("v-%06d", i))); err != nil {
			t.Fatal(err)
		}
	}
	grown := db.SymbolCount()
	if grown < churn {
		t.Fatalf("intern table did not grow under churn: %d symbols after %d unique values", grown, churn)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	shed := db.SymbolCount()
	// One live value remains; the rebuilt tables must have shed nearly all
	// churned uniques (schema/class/name symbols are a small constant).
	if shed >= grown-churn+50 {
		t.Fatalf("Compact kept dead intern entries: %d symbols before, %d after (churn %d)", grown, shed, churn)
	}
	// State must be unchanged by the rebuild.
	v := db.View()
	if o, ok := v.Object(val); !ok || o.Value.Str() != fmt.Sprintf("v-%06d", churn) {
		t.Fatalf("live value wrong after rebuild: %v %v", o.Value, ok)
	}
	// And mutations continue against the rebuilt store.
	if _, err := db.CreateObject("Action", "PostCompact"); err != nil {
		t.Fatal(err)
	}
}

// TestReplicaDigestIgnoresUncommittedIDs: a rolled-back transaction's
// creation and a creation the eager check refuses allocate IDs the log never
// carries. The committed ID mark a snapshot and StateDigest record must not
// see them, so a follower and a reopened copy digest equal to the primary.
func TestReplicaDigestIgnoresUncommittedIDs(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db := openDB(t, dir, Options{Schema: Figure3Schema(), Clock: fixedClock()})
	alarms := create(t, db, "Data", "Alarms")
	live, _ := bootstrapReplica(t, db)

	tx, err := db.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.CreateObject("Data", "Draft"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	digestsEqual(t, db, live, "after a rollback")
	// 'by' of Access takes an Action: the relationship is allocated, then
	// refused by the eager check.
	if _, err := db.CreateRelationship("Access", map[string]ID{"from": alarms, "by": alarms}); err == nil {
		t.Fatal("ill-typed relationship accepted")
	}
	digestsEqual(t, db, live, "after a refused create")
	boot, _ := bootstrapReplica(t, db)
	digestsEqual(t, db, boot, "bootstrapped after the refusals")

	want, err := db.StateDigest()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	reopened := openDB(t, dir, Options{})
	defer reopened.Close()
	if got, err := reopened.StateDigest(); err != nil || got != want {
		t.Fatalf("reopened copy digests %s (%v), primary %s", got, err, want)
	}
}

// TestManyRefusedCreatesStillReplay: every refused creation burns an ID, so
// a committed record may name an ID far past a reopened copy's or a
// follower's allocation counter. Recovery and a live follower must still
// take it: an ID past the counter is fresh, however far.
func TestManyRefusedCreatesStillReplay(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db := openDB(t, dir, Options{Schema: Figure3Schema(), Clock: fixedClock()})
	alarms := create(t, db, "Data", "Alarms")
	live, sub := bootstrapReplica(t, db)
	// 'by' of Access takes an Action: each relationship is allocated an ID,
	// then refused by the eager check.
	for i := 0; i <= 1<<20; i++ {
		if _, err := db.CreateRelationship("Access", map[string]ID{"from": alarms, "by": alarms}); err == nil {
			t.Fatal("ill-typed relationship accepted")
		}
	}
	create(t, db, "Action", "Sensor")
	if err := live.ApplyLogRecords(drainTap(t, sub, 1)); err != nil {
		t.Fatalf("live follower refused the create: %v", err)
	}
	digestsEqual(t, db, live, "live follower")
	want, err := db.StateDigest()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	reopened := openDB(t, dir, Options{})
	defer reopened.Close()
	if got, err := reopened.StateDigest(); err != nil || got != want {
		t.Fatalf("reopened copy digests %s (%v), primary %s", got, err, want)
	}
}
