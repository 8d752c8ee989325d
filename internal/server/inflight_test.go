package server

import (
	"errors"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/wire"
	"repro/seed"
)

// TestReleaseAllAbortsInflightTx: a disconnecting client's cleanup must not
// only drop its locks and name reservations but also abort its staged
// check-in transaction — a leaked batch would hold its claims forever and
// block every later check-in (and barrier operation) touching those items.
func TestReleaseAllAbortsInflightTx(t *testing.T) {
	db, err := seed.NewMemory(seed.Figure3Schema())
	if err != nil {
		t.Fatal(err)
	}
	root, err := db.CreateObject("Data", "Root")
	if err != nil {
		t.Fatal(err)
	}
	d, err := db.CreateValueObject(root, "Description", seed.NewString("base"))
	if err != nil {
		t.Fatal(err)
	}
	s := New(db)

	// Stage a transaction the way handleCheckin would, then simulate the
	// client dying mid-check-in.
	tx, err := db.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.SetValue(d, seed.NewString("staged")); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.locks["Root"] = "client-1"
	s.creating["Fresh"] = "client-1"
	s.inflight["client-1"] = tx
	s.mu.Unlock()

	s.releaseAll("client-1")

	if !tx.Done() {
		t.Fatal("in-flight transaction not aborted by releaseAll")
	}
	// The staged value must be rolled back, not committed.
	if o, _ := db.View().Object(d); o.Value.Str() != "base" {
		t.Errorf("staged value leaked: %q", o.Value.Str())
	}
	// The abort must unblock everything the leak would have wedged:
	// whole-database operations, conflicting claims, locks, reservations.
	if _, err := db.SaveVersion("after disconnect"); err != nil {
		t.Errorf("SaveVersion after disconnect: %v", err)
	}
	tx2, err := db.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx2.SetValue(d, seed.NewString("next")); err != nil {
		t.Errorf("claim after disconnect abort: %v", err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	_, lockHeld := s.locks["Root"]
	_, reserved := s.creating["Fresh"]
	inflight := len(s.inflight)
	s.mu.Unlock()
	if lockHeld || reserved || inflight != 0 {
		t.Errorf("cleanup incomplete: lock=%v reservation=%v inflight=%d", lockHeld, reserved, inflight)
	}
}

// TestDisconnectReleasesLocksOnWire: end-to-end, a client that vanishes
// while holding locks frees them for the next client.
func TestDisconnectReleasesLocksOnWire(t *testing.T) {
	db, _, addr := startPrimary(t, seed.Options{})
	if _, err := db.CreateObject("Data", "Root"); err != nil {
		t.Fatal(err)
	}

	c1, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Checkout("Root"); err != nil {
		t.Fatal(err)
	}
	c1.Close() // locks release asynchronously as the handler unwinds

	c2, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ws, err := c2.Checkout("Root")
		if err == nil {
			_ = ws.Abandon()
			return
		}
		if !errors.Is(err, wire.ErrLocked) {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("lock never released after disconnect")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
