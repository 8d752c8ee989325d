package server_test

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/client"
	"repro/internal/server"
	"repro/seed"
)

// startServer spins up a server over a fresh in-memory figure 3 database;
// configure runs before Listen (timeouts, admission).
func startServer(t *testing.T, configure ...func(*server.Server)) (*server.Server, string, *seed.Database) {
	t.Helper()
	db, err := seed.NewMemory(seed.Figure3Schema())
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(db)
	for _, f := range configure {
		f(srv)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr, db
}

func dial(t *testing.T, addr string) *client.Client {
	t.Helper()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestHelloAndStats(t *testing.T) {
	_, addr, _ := startServer(t)
	c1 := dial(t, addr)
	c2 := dial(t, addr)
	if c1.ID() == "" || c1.ID() == c2.ID() {
		t.Errorf("client ids: %q %q", c1.ID(), c2.ID())
	}
	st, err := c1.Stats()
	if err != nil || !strings.Contains(st, "objects=0") {
		t.Errorf("stats = %q, %v", st, err)
	}
}

func TestCheckoutCheckinFlow(t *testing.T) {
	_, addr, db := startServer(t)

	// Seed the central database.
	alarms, _ := db.CreateObject("Data", "Alarms")
	_, _ = db.CreateValueObject(alarms, "Description", seed.NewString("old"))

	c := dial(t, addr)
	ws, err := c.Checkout("Alarms")
	if err != nil {
		t.Fatal(err)
	}
	// The local copy carries the current state.
	snap, ok := ws.Copy("Alarms")
	if !ok || len(snap.Objects) != 2 {
		t.Fatalf("copy = %+v", snap)
	}

	// Stage updates against the copy, then check in.
	ws.SetValue("Alarms.Description", uint8(seed.KindString), "new description")
	ws.CreateObject("Action", "Handler")
	ws.CreateRelationship("Access", map[string]string{"from": "Alarms", "by": "Handler"})
	if err := ws.Commit(); err != nil {
		t.Fatal(err)
	}

	// The central database reflects the whole batch.
	id, err := db.ResolvePath("Alarms.Description")
	if err != nil {
		t.Fatal(err)
	}
	o, _ := db.View().Object(id)
	if o.Value.Str() != "new description" {
		t.Errorf("value after checkin = %q", o.Value)
	}
	if _, ok := db.GetObject("Handler"); !ok {
		t.Error("created object missing after checkin")
	}
}

func TestWriteLocks(t *testing.T) {
	_, addr, db := startServer(t)
	_, _ = db.CreateObject("Data", "Shared")

	c1 := dial(t, addr)
	c2 := dial(t, addr)

	ws1, err := c1.Checkout("Shared")
	if err != nil {
		t.Fatal(err)
	}
	// A second client cannot check the object out...
	if _, err := c2.Checkout("Shared"); err == nil {
		t.Fatal("double checkout succeeded")
	} else if !errors.Is(err, client.ErrRemote) {
		t.Fatalf("unexpected error: %v", err)
	}
	// ...nor check in updates against it.
	// (Build a workspace through its own checkout of another object.)
	_, _ = db.CreateObject("Data", "Other")
	ws2, err := c2.Checkout("Other")
	if err != nil {
		t.Fatal(err)
	}
	ws2.SetValue("Shared.Description", uint8(seed.KindString), "sneaky")
	if err := ws2.Commit(); err == nil {
		t.Fatal("checkin against foreign lock succeeded")
	}
	// After the first client commits, the lock is free.
	ws1.CreateValue("Shared", "Description", uint8(seed.KindString), "legit")
	if err := ws1.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Checkout("Shared"); err != nil {
		t.Errorf("checkout after release: %v", err)
	}
}

func TestCheckinIsAtomic(t *testing.T) {
	_, addr, db := startServer(t)
	_, _ = db.CreateObject("Data", "Doc")
	c := dial(t, addr)
	ws, err := c.Checkout("Doc")
	if err != nil {
		t.Fatal(err)
	}
	ws.CreateValue("Doc", "Description", uint8(seed.KindString), "good")
	ws.CreateSub("Doc", "Text")
	// Invalid: an Action cannot own the Text sub-object created above.
	ws.Reclassify("Doc", "Action")
	if err := ws.Commit(); err == nil {
		t.Fatal("invalid batch accepted")
	}
	// Nothing of the batch is visible: single transaction semantics.
	if _, err := db.ResolvePath("Doc.Description"); err == nil {
		t.Error("partial batch applied")
	}
}

func TestRelationshipEndsNeedLocks(t *testing.T) {
	_, addr, db := startServer(t)
	_, _ = db.CreateObject("Data", "Mine")
	_, _ = db.CreateObject("Action", "Foreign")
	c := dial(t, addr)
	ws, err := c.Checkout("Mine")
	if err != nil {
		t.Fatal(err)
	}
	// A relationship to an existing object the client never checked out is
	// rejected: it would change that object's participation under someone
	// else's feet.
	ws.CreateRelationship("Access", map[string]string{"from": "Mine", "by": "Foreign"})
	if err := ws.Commit(); err == nil {
		t.Fatal("relationship to unlocked end accepted")
	}
	// Checking both out works.
	ws2, err := c.Checkout("Mine", "Foreign")
	if err != nil {
		t.Fatal(err)
	}
	ws2.CreateRelationship("Access", map[string]string{"from": "Mine", "by": "Foreign"})
	if err := ws2.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestDisconnectReleasesLocks(t *testing.T) {
	_, addr, db := startServer(t)
	_, _ = db.CreateObject("Data", "Orphan")
	c1 := dial(t, addr)
	if _, err := c1.Checkout("Orphan"); err != nil {
		t.Fatal(err)
	}
	c1.Close()
	awaitLockReleased(t, addr, "Orphan", "lock not released on disconnect")
}

func TestRetrievalAndVersionOps(t *testing.T) {
	_, addr, db := startServer(t)
	alarms, _ := db.CreateObject("Data", "Alarms")
	_, _ = db.CreateObject("Action", "Handler")
	_, _ = db.CreateValueObject(alarms, "Description", seed.NewString("doc"))

	c := dial(t, addr)
	names, err := c.List("Data")
	if err != nil || len(names) != 1 || names[0] != "Alarms" {
		t.Errorf("List(Data) = %v, %v", names, err)
	}
	names, _ = c.List("")
	if len(names) != 2 {
		t.Errorf("List() = %v", names)
	}
	snaps, err := c.Get("Alarms")
	if err != nil || len(snaps) != 1 || len(snaps[0].Objects) != 2 {
		t.Errorf("Get = %+v, %v", snaps, err)
	}
	num, err := c.SaveVersion("from client")
	if err != nil || num != "1.0" {
		t.Errorf("SaveVersion = %q, %v", num, err)
	}
	vs, err := c.Versions()
	if err != nil || len(vs) != 1 || vs[0].Note != "from client" {
		t.Errorf("Versions = %+v, %v", vs, err)
	}
	fs, err := c.Completeness()
	if err != nil || len(fs) == 0 {
		t.Errorf("Completeness = %d findings, %v", len(fs), err)
	}
}

func TestConcurrentClients(t *testing.T) {
	_, addr, db := startServer(t)
	// Pre-create objects, one per client.
	names := []string{"A", "B", "C", "D"}
	for _, n := range names {
		if _, err := db.CreateObject("Data", n); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(names))
	for _, n := range names {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			ws, err := c.Checkout(name)
			if err != nil {
				errs <- err
				return
			}
			ws.CreateValue(name, "Description", uint8(seed.KindString), "by "+name)
			errs <- ws.Commit()
		}(n)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	for _, n := range names {
		if _, err := db.ResolvePath(n + ".Description"); err != nil {
			t.Errorf("%s.Description missing: %v", n, err)
		}
	}
}

func TestWorkspaceAbandon(t *testing.T) {
	_, addr, db := startServer(t)
	_, _ = db.CreateObject("Data", "X")
	c := dial(t, addr)
	ws, err := c.Checkout("X")
	if err != nil {
		t.Fatal(err)
	}
	ws.SetValue("X.Description", uint8(seed.KindString), "never")
	if err := ws.Abandon(); err != nil {
		t.Fatal(err)
	}
	// Lock free again, update never applied.
	if _, err := c.Checkout("X"); err != nil {
		t.Errorf("checkout after abandon: %v", err)
	}
	if _, err := db.ResolvePath("X.Description"); err == nil {
		t.Error("abandoned update applied")
	}
}
