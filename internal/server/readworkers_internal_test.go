package server

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/wire"
	"repro/seed"
)

// TestReadWorkersBoundedAndReaped pins the read lane's worker lifecycle:
// pipelined gets never run more than perConn at once on one connection, a
// lockstep client is served by a single worker however many requests it
// makes, and once the client closes every worker exits, so the process's
// goroutine count returns to where it was before the client dialled.
func TestReadWorkersBoundedAndReaped(t *testing.T) {
	const perConn = 4
	db, err := seed.NewMemory(seed.Figure3Schema())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.CreateObject("Data", "Root"); err != nil {
		t.Fatal(err)
	}
	serve := func() (*Server, string) {
		s := New(db)
		s.SetAdmission(0, 0, perConn)
		addr, err := s.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return s, addr
	}
	dial := func(addr string) *client.Client {
		c, err := client.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	// reaped waits for the goroutine count to fall back to base.
	reaped := func(phase string, base int) {
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines after the client closed, %d before it dialled", phase, runtime.NumGoroutine(), base)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Pipelined: a get that sleeps, so requests overlap, and counts how
	// many run at once. The op table is swapped only while no server runs.
	var running, peak atomic.Int32
	get := routes[wire.OpGet]
	slow := get
	slow.handle = func(s *Server, c *conn, req *wire.Request) *wire.Response {
		n := running.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		time.Sleep(2 * time.Millisecond)
		running.Add(-1)
		return get.handle(s, c, req)
	}
	routes[wire.OpGet] = slow
	s, addr := serve()
	base := runtime.NumGoroutine()
	c := dial(addr)
	pending := make([]*client.Pending, 64)
	for i := range pending {
		if pending[i], err = c.Send(&wire.Request{Op: wire.OpGet, Names: []string{"Root"}}); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range pending {
		if resp, err := p.Await(); err != nil || len(resp.Snapshots) != 1 {
			t.Fatalf("pipelined get %d: %v", i, err)
		}
	}
	c.Close()
	reaped("pipelined", base)
	if started := s.met.readWorkers.Load(); started > perConn {
		t.Errorf("pipelined: %d read workers started, perConn is %d", started, perConn)
	}
	s.Close()
	routes[wire.OpGet] = get
	t.Logf("64 pipelined gets: at most %d ran at once (perConn %d)", peak.Load(), perConn)
	if p := peak.Load(); p > perConn || p < 2 {
		t.Errorf("64 pipelined gets ran at most %d at once, want 2..%d", p, perConn)
	}

	// Lockstep: the hello starts the connection's one worker, and every
	// get after it finds that worker idle.
	s, addr = serve()
	defer s.Close()
	base = runtime.NumGoroutine()
	c = dial(addr)
	for i := 0; i < 1000; i++ {
		if snaps, err := c.Get("Root"); err != nil || len(snaps) != 1 {
			t.Fatalf("lockstep get %d: %v", i, err)
		}
	}
	if started := s.met.readWorkers.Load(); started != 1 {
		t.Errorf("hello and 1000 lockstep gets started %d read workers, want 1", started)
	}
	c.Close()
	reaped("lockstep", base)
}
