package server_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/seed"
)

// TestWriteTimeoutReleasesLocks: with ONLY the write deadline armed (no
// idle timeout), a client that holds a lock, floods requests, and stops
// reading must be reaped by the stalled write — and the teardown must
// release its locks and abort its in-flight transaction. This is the
// companion of TestStalledClientReleasesLocks, which covers the idle-
// timeout-only configuration.
func TestWriteTimeoutReleasesLocks(t *testing.T) {
	_, addr, db := startServer(t, func(s *server.Server) { s.SetTimeouts(0, 100*time.Millisecond) }) // write deadline only
	root, err := db.CreateObject("Data", "Root")
	if err != nil {
		t.Fatal(err)
	}
	// A fat object so a few un-read responses fill the socket buffers.
	if _, err := db.CreateValueObject(root, "Description", seed.NewString(strings.Repeat("x", 1<<20))); err != nil {
		t.Fatal(err)
	}

	r := dialRaw(t, addr)
	r.roundTrip(&wire.Request{Op: wire.OpHello, Proto: wire.Proto})
	r.send(&wire.Request{Op: wire.OpCheckout, Seq: 1, Names: []string{"Root"}})
	// Flood fat gets and never read a byte: the writer must hit its write
	// deadline on the full TCP window and reap the connection.
	for seq := uint64(2); seq < 100; seq++ {
		r.send(&wire.Request{Op: wire.OpGet, Seq: seq, Names: []string{"Root"}})
	}
	awaitLockReleased(t, addr, "Root", "write timeout did not reap the stalled reader")
	if st, err := dial(t, addr).StatsInfo(); err != nil || st.OpenTxs != 0 {
		t.Errorf("reaped connection left %d transactions in flight (%v)", st.OpenTxs, err)
	}
}

// TestAdmissionShedsOverload: with the gate at one executing request and a
// zero-depth queue, concurrent hammering clients must see typed, retryable
// overload rejections — and the counters must account for them.
func TestAdmissionShedsOverload(t *testing.T) {
	_, addr, db := startServer(t, func(s *server.Server) { s.SetAdmission(1, 0, 0) })
	if _, err := db.CreateObject("Data", "Doc"); err != nil {
		t.Fatal(err)
	}

	var shed, okCount, other atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			// Pipeline a burst of mutations: they hold their admission
			// tokens from the reader's acquire until the mutation worker
			// finishes them, so four connections' bursts genuinely overlap
			// on the 1-deep gate and the zero-depth queue must shed.
			pending := make([]*client.Pending, 0, 50)
			for n := 0; n < 50; n++ {
				p, err := c.Send(&wire.Request{Op: wire.OpRelease, Names: []string{"Doc"}})
				if err != nil {
					t.Error(err)
					return
				}
				pending = append(pending, p)
			}
			for _, p := range pending {
				switch _, err := p.Await(); {
				case err == nil:
					okCount.Add(1)
				case errors.Is(err, wire.ErrOverloaded):
					if !client.Retryable(err) {
						t.Error("overload rejection not classified retryable")
					}
					shed.Add(1)
				default:
					other.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if other.Load() != 0 {
		t.Errorf("%d rejections were not typed ErrOverloaded", other.Load())
	}
	if shed.Load() == 0 {
		t.Error("8 clients against a 1-deep gate never got shed")
	}
	if okCount.Load() == 0 {
		t.Error("no request ever succeeded under overload")
	}
	c := dial(t, addr)
	st, err := c.StatsInfo()
	if err != nil {
		t.Fatal(err)
	}
	if st.Rejected != shed.Load() {
		t.Errorf("server counted %d rejections, clients saw %d", st.Rejected, shed.Load())
	}
}

// TestAdmissionQueueAbsorbsBurst: a queue deeper than the possible number
// of concurrent acquires (one per connection) must absorb the same burst
// without a single rejection — queue-or-reject, with waiting preferred
// while there is room.
func TestAdmissionQueueAbsorbsBurst(t *testing.T) {
	_, addr, db := startServer(t, func(s *server.Server) { s.SetAdmission(1, 64, 0) }) // deeper than the 8 connections' readers
	if _, err := db.CreateObject("Data", "Doc"); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for n := 0; n < 50; n++ {
				if _, err := c.Get("Doc"); err != nil {
					t.Errorf("get under queued admission: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	c := dial(t, addr)
	st, err := c.StatsInfo()
	if err != nil {
		t.Fatal(err)
	}
	if st.Rejected != 0 {
		t.Errorf("queue deep enough for every reader still rejected %d requests", st.Rejected)
	}
}

// TestMetricsEndpoints drives a little traffic and checks the three HTTP
// endpoints: Prometheus text metrics with the expected series, liveness,
// and readiness flipping to 503 once the server leaves service.
func TestMetricsEndpoints(t *testing.T) {
	srv, addr, db := startServer(t)
	if _, err := db.CreateObject("Data", "Doc"); err != nil {
		t.Fatal(err)
	}
	c := dial(t, addr)
	if _, err := c.Get("Doc"); err != nil {
		t.Fatal(err)
	}
	ws, err := c.Checkout("Doc")
	if err != nil {
		t.Fatal(err)
	}
	ws.CreateValue("Doc", "Description", uint8(seed.KindString), "v")
	if err := ws.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("NoSuchObject"); err == nil {
		t.Fatal("get of a missing object succeeded")
	}

	h := srv.MetricsHandler()
	get := func(path string) (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Code, rec.Body.String()
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		"seed_up 1",
		`seed_op_duration_seconds_bucket{op="get",le="+Inf"}`,
		`seed_op_duration_seconds_count{op="checkin"} 1`,
		`seed_responses_total{code="ok"}`,
		`seed_responses_total{code="error"} 1`, // the failed get
		"seed_rejected_total 0",
		"seed_connections_total 1",
		"seed_connections_open 1",
		"seed_locks_held 0",
		"seed_inflight_requests",
		"seed_queued_requests 0",
		"seed_draining 0",
		"seed_db_objects 2",
		"seed_db_relationships 0",
		"seed_wal_segments 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q", code, body)
	}
	if code, body := get("/readyz"); code != http.StatusOK || !strings.Contains(body, "ready") {
		t.Errorf("/readyz = %d %q", code, body)
	}

	// Out of service: readiness flips, liveness and metrics keep answering.
	srv.Close()
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Errorf("/readyz after close = %d %q, want 503 draining", code, body)
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Errorf("/healthz after close = %d", code)
	}
	if code, body := get("/metrics"); code != http.StatusOK || !strings.Contains(body, "seed_draining 1") {
		t.Errorf("/metrics after close: %d, draining gauge missing", code)
	}
}

// TestShutdownSealsAcknowledgedWork: every check-in acknowledged before or
// during a graceful drain must be durable across a reopen — the drain waits
// for in-flight mutations and seals the WAL tail before closing.
func TestShutdownSealsAcknowledgedWork(t *testing.T) {
	dir := t.TempDir()
	db, err := seed.Open(dir, seed.Options{Schema: seed.Figure3Schema(), SyncPolicy: seed.SyncGroupCommit})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(db)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var acked []string
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				return
			}
			defer c.Close()
			for n := 0; ; n++ {
				name := fmt.Sprintf("Doc%dn%d", w, n)
				ws, err := c.Checkout()
				if err != nil {
					return
				}
				ws.CreateObject("Data", name)
				if err := ws.Commit(); err != nil {
					return // unacked: allowed to be absent after reopen
				}
				mu.Lock()
				acked = append(acked, name)
				mu.Unlock()
			}
		}(w)
	}
	time.Sleep(150 * time.Millisecond) // accumulate acknowledged commits
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Errorf("Shutdown: %v", err)
	}
	wg.Wait()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	names := append([]string(nil), acked...)
	mu.Unlock()
	if len(names) == 0 {
		t.Fatal("no commit was ever acknowledged — the test drove no load")
	}
	re, err := seed.Open(dir, seed.Options{})
	if err != nil {
		t.Fatalf("reopen after drain: %v", err)
	}
	defer re.Close()
	v := re.View()
	for _, name := range names {
		if _, ok := v.ObjectByName(name); !ok {
			t.Errorf("acknowledged check-in %q lost across the drain", name)
		}
	}
}
