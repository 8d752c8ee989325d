package server_test

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/client"
	"repro/internal/wire"
	"repro/seed"
)

// checkoutRetry checks out names, retrying while another client holds a
// lock — the errors.Is match on wire.ErrLocked is exactly the retry
// loop the wire error code exists for.
func checkoutRetry(t *testing.T, c *client.Client, names ...string) *client.Workspace {
	t.Helper()
	for {
		ws, err := c.Checkout(names...)
		if err == nil {
			return ws
		}
		if !errors.Is(err, wire.ErrLocked) {
			t.Fatalf("checkout %v: %v", names, err)
		}
	}
}

// TestSnapshotsNeverTornAcrossWire hammers OpGet and OpList against
// concurrent check-ins. Each check-in moves every keyword of one document
// to a common tag in a single transaction, so any retrieved subtree whose
// keywords disagree is a torn snapshot. Run under -race this is the
// end-to-end validation of the snapshot-view + transaction-gate design.
func TestSnapshotsNeverTornAcrossWire(t *testing.T) {
	_, addr, db := startServer(t)
	doc, err := db.CreateObject("Data", "Doc")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := db.CreateSubObject(doc, "Text")
	body, _ := db.CreateSubObject(text, "Body")
	const group = 6
	for i := 0; i < group; i++ {
		if _, err := db.CreateValueObject(body, "Keywords", seed.NewString("tag-w0-0")); err != nil {
			t.Fatal(err)
		}
	}
	// A second root so OpList has something to interleave with.
	if _, err := db.CreateObject("Action", "Handler"); err != nil {
		t.Fatal(err)
	}

	const (
		writers        = 2
		checkinsPer    = 40
		readIterations = 150
	)
	// Readers stop early once every writer is done: past that point the
	// database is static and further iterations exercise nothing.
	var stop atomic.Bool
	var wg, writerWg sync.WaitGroup
	errCh := make(chan error, writers+2)
	writerWg.Add(writers)
	go func() {
		writerWg.Wait()
		stop.Store(true)
	}()

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer writerWg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			for i := 1; i <= checkinsPer; i++ {
				ws := checkoutRetry(t, c, "Doc")
				tag := fmt.Sprintf("tag-w%d-%d", w, i)
				for k := 0; k < group; k++ {
					ws.SetValue(fmt.Sprintf("Doc.Text[0].Body.Keywords[%d]", k),
						uint8(seed.KindString), tag)
				}
				if err := ws.Commit(); err != nil {
					errCh <- fmt.Errorf("writer %d checkin %d: %w", w, i, err)
					return
				}
			}
			errCh <- nil
		}(w)
	}

	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			for i := 0; i < readIterations && !stop.Load(); i++ {
				snaps, err := c.Get("Doc")
				if err != nil {
					errCh <- err
					return
				}
				var first string
				seen := 0
				for _, o := range snaps[0].Objects {
					if !strings.Contains(o.Path, "Keywords") {
						continue
					}
					if seen == 0 {
						first = o.Value
					} else if o.Value != first {
						errCh <- fmt.Errorf("torn snapshot: %q vs %q", first, o.Value)
						return
					}
					seen++
				}
				if seen != group {
					errCh <- fmt.Errorf("snapshot holds %d keywords, want %d", seen, group)
					return
				}
				if _, err := c.List(""); err != nil {
					errCh <- err
					return
				}
			}
			errCh <- nil
		}()
	}

	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentCheckinsSerialize starts many clients checking in against
// disjoint objects simultaneously: every check-in must succeed — the
// transaction gate queues them; the database's global transaction is never
// contended, and no transaction-state error ever reaches a client.
func TestConcurrentCheckinsSerialize(t *testing.T) {
	_, addr, db := startServer(t)
	const clients = 4
	const rounds = 25
	for i := 0; i < clients; i++ {
		if _, err := db.CreateObject("Data", fmt.Sprintf("Obj%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			name := fmt.Sprintf("Obj%d", i)
			<-start
			for r := 0; r < rounds; r++ {
				ws, err := c.Checkout(name)
				if err != nil {
					errCh <- fmt.Errorf("client %d round %d checkout: %w", i, r, err)
					return
				}
				if r == 0 {
					ws.CreateValue(name, "Description", uint8(seed.KindString), "r0")
				} else {
					ws.SetValue(name+".Description", uint8(seed.KindString), fmt.Sprintf("r%d", r))
				}
				if err := ws.Commit(); err != nil {
					errCh <- fmt.Errorf("client %d round %d checkin: %w", i, r, err)
					return
				}
			}
			errCh <- nil
		}(i)
	}
	close(start)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < clients; i++ {
		id, err := db.ResolvePath(fmt.Sprintf("Obj%d.Description", i))
		if err != nil {
			t.Fatal(err)
		}
		if o, _ := db.View().Object(id); o.Value.Str() != fmt.Sprintf("r%d", rounds-1) {
			t.Errorf("Obj%d final value = %q", i, o.Value.Str())
		}
	}
}

// TestLockErrorIdentity: lock conflicts keep their identity across the
// wire.
func TestLockErrorIdentity(t *testing.T) {
	_, addr, db := startServer(t)
	_, _ = db.CreateObject("Data", "Shared")
	_, _ = db.CreateObject("Data", "Other")

	c1 := dial(t, addr)
	c2 := dial(t, addr)
	if _, err := c1.Checkout("Shared"); err != nil {
		t.Fatal(err)
	}

	_, err := c2.Checkout("Shared")
	if !errors.Is(err, wire.ErrLocked) {
		t.Errorf("conflicting checkout: got %v, want ErrLocked", err)
	}
	if !errors.Is(err, client.ErrRemote) {
		t.Errorf("conflicting checkout: %v does not wrap ErrRemote", err)
	}

	ws, err := c2.Checkout("Other")
	if err != nil {
		t.Fatal(err)
	}
	ws.SetValue("Shared.Description", uint8(seed.KindString), "sneaky")
	if err := ws.Commit(); !errors.Is(err, wire.ErrNotLocked) {
		t.Errorf("checkin against foreign lock: got %v, want ErrNotLocked", err)
	}
}

// TestCheckoutFailureKeepsPriorLocks: a failing checkout must roll back
// only the locks it newly acquired — locks the client already held from an
// earlier checkout survive.
func TestCheckoutFailureKeepsPriorLocks(t *testing.T) {
	_, addr, db := startServer(t)
	_, _ = db.CreateObject("Data", "Held")

	c1 := dial(t, addr)
	if _, err := c1.Checkout("Held"); err != nil {
		t.Fatal(err)
	}
	// Re-requesting Held together with a nonexistent object fails...
	if _, err := c1.Checkout("Held", "Missing"); err == nil {
		t.Fatal("checkout of a nonexistent object succeeded")
	}
	// ...but Held stays locked for c1: another client still conflicts.
	c2 := dial(t, addr)
	if _, err := c2.Checkout("Held"); !errors.Is(err, wire.ErrLocked) {
		t.Errorf("after failed re-checkout, Held lock lost: %v", err)
	}
}

// TestListStableOnWire: the server sorts OpList output, so raw protocol
// clients see a stable order without client-side help.
func TestListStableOnWire(t *testing.T) {
	_, addr, db := startServer(t)
	for _, name := range []string{"Zeta", "Alpha", "Mid", "Beta"} {
		if _, err := db.CreateObject("Data", name); err != nil {
			t.Fatal(err)
		}
	}
	r := dialRaw(t, addr)
	r.roundTrip(&wire.Request{Op: wire.OpHello, Proto: wire.Proto})
	for i := 0; i < 3; i++ {
		resp := r.roundTrip(&wire.Request{Op: wire.OpList, Seq: uint64(i + 1)})
		if resp.Err != "" {
			t.Fatal(resp.Err)
		}
		if !sort.StringsAreSorted(resp.Names) {
			t.Fatalf("OpList names not sorted: %v", resp.Names)
		}
		if len(resp.Names) != 4 {
			t.Fatalf("OpList names = %v", resp.Names)
		}
	}
}
