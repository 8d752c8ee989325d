package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/wire"
	"repro/seed"
)

// TestDrainRefusalMatrix walks the op table on a draining server: exactly
// the rows that start new work are refused with the retryable shutting-down
// code, while retrieval and lock release keep working so clients can finish
// and wind down.
func TestDrainRefusalMatrix(t *testing.T) {
	db, s, addr := startPrimary(t, seed.Options{})
	if _, err := db.CreateObject("Data", "Root"); err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s.draining.Store(true)
	walkRoutes(t, c, "Root", func(rt route) bool { return rt.drain }, wire.ErrShuttingDown,
		wire.OpCheckin, wire.OpCheckout, wire.OpSaveVersion, wire.OpSubscribeLog)
}

// walkRoutes sends one request per op-table row over c and holds the row's
// flag both to the policy pinned here and to what the server answers: a
// flagged row is refused with want (a redial-class refusal), any other row
// succeeds.
func walkRoutes(t *testing.T, c *client.Client, name string, flag func(route) bool, want error, pinned ...wire.Op) {
	t.Helper()
	for op, rt := range routes {
		err := callRoute(c, op, name)
		switch refused := slices.Contains(pinned, op); {
		case flag(rt) != refused:
			t.Errorf("%s: table flag %v, want %v", op, flag(rt), refused)
		case refused && (!errors.Is(err, want) || client.Classify(err) != wire.ClassRedial):
			t.Errorf("%s: answered %v, want a redial-class %v", op, err, want)
		case !refused && err != nil:
			t.Errorf("%s: %v", op, err)
		}
	}
}

// callRoute issues op the way a client program does: through the client's
// own call where one exists, so a refusal travels that call's path — the
// log stream's through LogStream.Next — and as a raw request otherwise,
// addressing name and carrying the fields any op needs.
func callRoute(c *client.Client, op wire.Op, name string) (err error) {
	switch op {
	case wire.OpCheckout:
		_, err = c.Checkout(name)
	case wire.OpRelease:
		err = c.Release(name)
	case wire.OpSaveVersion:
		_, err = c.SaveVersion("walk")
	case wire.OpSubscribeLog:
		var ls *client.LogStream
		if ls, err = c.SubscribeLog(); err == nil {
			_, err = ls.Next()
		}
	default:
		var p *client.Pending
		if p, err = c.Send(&wire.Request{Op: op, Proto: wire.Proto, Names: []string{name}, Query: &wire.Query{Class: "Data"}}); err == nil {
			_, err = p.Await()
		}
	}
	return err
}

// TestShutdownUnderLoad drives mutating traffic from several clients, calls
// Shutdown mid-stream, and requires: a nil drain error, every lock and
// in-flight transaction released, and the goroutine count settling back to
// its pre-server baseline — no leaked readers, writers, handlers, or
// admission waiters.
func TestShutdownUnderLoad(t *testing.T) {
	before := runtime.NumGoroutine()
	db, err := seed.NewMemory(seed.Figure3Schema())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 4; i++ {
		if _, err := db.CreateObject("Data", fmt.Sprintf("Obj%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	s := New(db)
	s.SetAdmission(8, 16, 0)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				return
			}
			defer c.Close()
			obj := fmt.Sprintf("Obj%d", i)
			for n := 0; ; n++ {
				ws, err := c.Checkout(obj)
				if err != nil {
					return // drain refusal or teardown ends the loop
				}
				ws.CreateValue(obj, "Description", uint8(seed.KindString), fmt.Sprintf("v%d", n))
				if err := ws.Commit(); err != nil {
					return
				}
			}
		}(i)
	}
	time.Sleep(100 * time.Millisecond) // let the load establish itself

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("Shutdown under load: %v", err)
	}
	wg.Wait()

	s.mu.Lock()
	locks, inflight, conns := len(s.locks), len(s.inflight), len(s.conns)
	s.mu.Unlock()
	if locks != 0 || inflight != 0 || conns != 0 {
		t.Errorf("after shutdown: %d locks, %d inflight txs, %d conns — want all zero", locks, inflight, conns)
	}

	// Goroutines must settle back to the baseline (small slack for the
	// runtime's own background goroutines).
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d before, %d after shutdown\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Shutdown twice is a no-op, and Close after Shutdown is safe.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Errorf("second Shutdown: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close after Shutdown: %v", err)
	}
}

// TestEveryWireCodeMapped: the seed sentinels codeOf translates (wire
// cannot import seed) still reach their codes, and every row of the wire
// error table owns a seed_responses_total series — a code missing from the
// metrics table would be counted as an uncoded "error".
func TestEveryWireCodeMapped(t *testing.T) {
	for err, want := range map[error]string{seed.ErrTxConflict: "conflict", seed.ErrNotPrimary: "not-primary"} {
		if got := codeOf(fmt.Errorf("wrapped: %w", err)); got != want {
			t.Errorf("%v maps onto wire code %q, want %q", err, got, want)
		}
	}
	m := newMetrics()
	for _, r := range wire.Refusals {
		m.countCode(r.Code)
		if c, ok := m.codes[r.Code]; !ok || c.Load() != 1 || m.codes["error"].Load() != 0 {
			t.Errorf("wire code %q is not counted under its own label", r.Code)
		}
	}
}
