package server_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/seed"
)

// rawConn is a bare socket speaking hand-written frames, for protocol tests
// that must see exactly what the server answers.
type rawConn struct {
	t    *testing.T
	conn net.Conn
	rd   *wire.Reader
	wr   *wire.Writer
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawConn{t: t, conn: conn, rd: wire.NewReader(conn), wr: wire.NewWriter(conn)}
}

func (r *rawConn) send(req *wire.Request) {
	r.t.Helper()
	if err := r.wr.Write(req); err != nil {
		r.t.Fatal(err)
	}
}

func (r *rawConn) roundTrip(req *wire.Request) *wire.Response {
	r.t.Helper()
	r.send(req)
	var resp wire.Response
	if err := r.rd.Read(&resp); err != nil {
		r.t.Fatal(err)
	}
	return &resp
}

// awaitLockReleased polls until a fresh client can check name out: the
// teardown of the connection that held the lock (releaseAll) runs after its
// socket closes, so the lock drops shortly after, not synchronously.
func awaitLockReleased(t *testing.T, addr, name, why string) {
	t.Helper()
	c := dial(t, addr)
	deadline := time.Now().Add(10 * time.Second)
	for {
		ws, err := c.Checkout(name)
		if err == nil {
			_ = ws.Abandon()
			return
		}
		if !errors.Is(err, wire.ErrLocked) {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("lock never released: %s", why)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRawFrames: a client that hand-writes v2 frames — hello announcing the
// version, a Seq on every request — is served like the library client. An
// op the table has no row for gets exactly one uncoded error naming it,
// counted as "error", and the connection keeps serving.
func TestRawFrames(t *testing.T) {
	srv, addr, db := startServer(t)
	if _, err := db.CreateObject("Data", "Alarms"); err != nil {
		t.Fatal(err)
	}
	r := dialRaw(t, addr)
	hello := r.roundTrip(&wire.Request{Op: wire.OpHello, Proto: wire.Proto})
	if hello.Err != "" || hello.ClientID == "" || hello.Proto != wire.Proto {
		t.Errorf("hello = %+v", hello)
	}
	if resp := r.roundTrip(&wire.Request{Op: wire.OpGet, Seq: 7, Names: []string{"Alarms"}}); resp.Err != "" || resp.Seq != 7 {
		t.Errorf("get = %+v", resp)
	}
	if resp := r.roundTrip(&wire.Request{Op: "watch", Seq: 9}); resp.Seq != 9 || resp.Code != "" || resp.Err != `server: unknown op "watch"` {
		t.Errorf("unknown op = %+v", resp)
	}
	// The next frame answers the stats request, not the unknown op again.
	if resp := r.roundTrip(&wire.Request{Op: wire.OpStats, Seq: 8}); resp.Stats == "" || resp.Seq != 8 {
		t.Errorf("stats = %+v", resp)
	}
	var scrape strings.Builder
	srv.WriteMetrics(&scrape)
	if line := `seed_responses_total{code="error"} 1`; !strings.Contains(scrape.String(), line+"\n") {
		t.Errorf("/metrics after one unknown op lacks %q", line)
	}
}

// TestRetiredProtocolRejected: the v1 lockstep and v2 JSON protocols are
// gone. A hello that announces another version than wire.Proto and a
// request without a Seq each get exactly one error naming the unsupported
// protocol, then the connection closes with the usual teardown — locks the
// client held are released. A protocol-2 JSON frame does not decode: it is
// logged as a protocol-reject and the connection closes unanswered.
func TestRetiredProtocolRejected(t *testing.T) {
	var logMu sync.Mutex
	var logs strings.Builder
	_, addr, db := startServer(t, func(s *server.Server) {
		s.SetLogger(func(format string, args ...any) {
			logMu.Lock()
			defer logMu.Unlock()
			fmt.Fprintf(&logs, format+"\n", args...)
		})
	})
	if _, err := db.CreateObject("Data", "Alarms"); err != nil {
		t.Fatal(err)
	}
	rejected := func(t *testing.T, r *rawConn, req *wire.Request) {
		t.Helper()
		resp := r.roundTrip(req)
		if !strings.Contains(resp.Err, "unsupported protocol") || resp.Code != "" {
			t.Errorf("%s answered %+v, want an unsupported-protocol error", req.Op, resp)
		}
		_ = r.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		var next wire.Response
		if err := r.rd.Read(&next); !errors.Is(err, io.EOF) {
			t.Errorf("after the rejection: %+v, %v; want the connection closed", &next, err)
		}
	}

	t.Run("proto-less hello", func(t *testing.T) {
		rejected(t, dialRaw(t, addr), &wire.Request{Op: wire.OpHello})
		dial(t, addr) // the server keeps serving current clients
	})
	t.Run("proto-2 hello", func(t *testing.T) {
		rejected(t, dialRaw(t, addr), &wire.Request{Op: wire.OpHello, Proto: 2})
	})
	t.Run("json hello", func(t *testing.T) {
		r := dialRaw(t, addr)
		payload := `{"op":"hello","proto":2}`
		if _, err := r.conn.Write(append(binary.LittleEndian.AppendUint32(nil, uint32(len(payload))), payload...)); err != nil {
			t.Fatal(err)
		}
		_ = r.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, err := r.conn.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
			t.Errorf("after a JSON hello: %d bytes, %v; want the connection closed unanswered", n, err)
		}
		// The reader logs the rejection before it closes the connection.
		logMu.Lock()
		got := logs.String()
		logMu.Unlock()
		if !strings.Contains(got, "event=protocol-reject") || !strings.Contains(got, "malformed frame") {
			t.Errorf("no protocol-reject logged for the JSON hello:\n%s", got)
		}
		dial(t, addr)
	})
	t.Run("seq-less request", func(t *testing.T) {
		r := dialRaw(t, addr)
		r.roundTrip(&wire.Request{Op: wire.OpHello, Proto: wire.Proto})
		if resp := r.roundTrip(&wire.Request{Op: wire.OpCheckout, Seq: 1, Names: []string{"Alarms"}}); resp.Err != "" {
			t.Fatalf("checkout = %+v", resp)
		}
		rejected(t, r, &wire.Request{Op: wire.OpGet, Names: []string{"Alarms"}})
		awaitLockReleased(t, addr, "Alarms", "the rejected connection kept its lock")
	})
}

// TestPipelinedReadsCorrelate is the protocol v2 stress: one shared
// connection with many goroutines' requests in flight — explicit Send/Await
// windows and blocking calls mixed — while a writer churns generations on a
// second connection. Every response must carry the payload of its own
// request; a correlation slip (or torn snapshot) fails loudly. Run under
// -race in the CI stress step.
func TestPipelinedReadsCorrelate(t *testing.T) {
	_, addr, db := startServer(t)
	const objects = 16
	for i := 0; i < objects; i++ {
		id, err := db.CreateObject("Data", fmt.Sprintf("Obj%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.CreateValueObject(id, "Description", seed.NewString(fmt.Sprintf("desc-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	churn, err := db.CreateObject("Data", "Churn")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateValueObject(churn, "Description", seed.NewString("gen-0")); err != nil {
		t.Fatal(err)
	}

	shared := dial(t, addr)
	stop := make(chan struct{})
	var writerErr error
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		w, err := client.Dial(addr)
		if err != nil {
			writerErr = err
			return
		}
		defer w.Close()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			ws, err := w.Checkout("Churn")
			if err != nil {
				writerErr = err
				return
			}
			ws.SetValue("Churn.Description", uint8(seed.KindString), fmt.Sprintf("gen-%d", i))
			if err := ws.Commit(); err != nil {
				writerErr = err
				return
			}
		}
	}()

	const readers = 8
	const iters = 40
	errs := make([]error, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for i := 0; i < iters; i++ {
				// Window of pipelined gets: issue a burst, then check each
				// response against the name its request asked for.
				window := 1 + rng.Intn(8)
				names := make([]string, window)
				pends := make([]*client.Pending, window)
				for k := 0; k < window; k++ {
					names[k] = fmt.Sprintf("Obj%d", rng.Intn(objects))
					p, err := shared.Send(&wire.Request{Op: wire.OpGet, Names: []string{names[k]}})
					if err != nil {
						errs[r] = err
						return
					}
					pends[k] = p
				}
				for k := 0; k < window; k++ {
					resp, err := pends[k].Await()
					if err != nil {
						errs[r] = err
						return
					}
					if len(resp.Snapshots) != 1 || resp.Snapshots[0].Root != names[k] {
						errs[r] = fmt.Errorf("response correlation slipped: asked %q, got %+v", names[k], resp.Snapshots)
						return
					}
					want := "desc-" + strings.TrimPrefix(names[k], "Obj")
					found := false
					for _, o := range resp.Snapshots[0].Objects {
						if o.Value == want {
							found = true
						}
					}
					if !found {
						errs[r] = fmt.Errorf("%s: payload of another object (want value %q)", names[k], want)
						return
					}
				}
				// Interleave a blocking call on the same shared connection.
				if _, err := shared.StatsInfo(); err != nil {
					errs[r] = err
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	writerWG.Wait()
	if writerErr != nil {
		t.Fatalf("writer: %v", writerErr)
	}
	for r, err := range errs {
		if err != nil {
			t.Fatalf("reader %d: %v", r, err)
		}
	}
}

// TestPipelinedMutationFIFO: mutating requests sent back to back without
// awaiting keep their order — a check-in pipelined directly behind the
// checkout it depends on must see the locks in place.
func TestPipelinedMutationFIFO(t *testing.T) {
	_, addr, db := startServer(t)
	alarms, _ := db.CreateObject("Data", "Alarms")
	_, _ = db.CreateValueObject(alarms, "Description", seed.NewString("old"))

	c := dial(t, addr)
	co, err := c.Send(&wire.Request{Op: wire.OpCheckout, Names: []string{"Alarms"}})
	if err != nil {
		t.Fatal(err)
	}
	ci, err := c.Send(&wire.Request{Op: wire.OpCheckin, Names: []string{"Alarms"}, Updates: []wire.Update{{
		Kind: wire.UpdateSetValue, Path: "Alarms.Description",
		ValueKind: uint8(seed.KindString), Value: "pipelined",
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := co.Await(); err != nil {
		t.Fatalf("checkout: %v", err)
	}
	if _, err := ci.Await(); err != nil {
		t.Fatalf("checkin behind checkout: %v", err)
	}
	if o, _ := db.View().Object(alarms); o.ID != alarms {
		t.Fatal("lost the object")
	}
	v := db.View()
	id, _ := v.ObjectByName("Alarms")
	var got string
	for _, ch := range v.Children(id, "Description") {
		if o, ok := v.Object(ch); ok {
			got = o.Value.Str()
		}
	}
	if got != "pipelined" {
		t.Errorf("check-in not applied in order: %q", got)
	}
}

// TestIdleTimeoutReleasesLocks: a client that goes silent past the idle
// read timeout is disconnected, and the disconnect cleanup frees its locks
// and aborts its in-flight transaction — the next client gets through.
func TestIdleTimeoutReleasesLocks(t *testing.T) {
	_, addr, db := startServer(t, func(s *server.Server) { s.SetTimeouts(100*time.Millisecond, time.Second) })
	if _, err := db.CreateObject("Data", "Root"); err != nil {
		t.Fatal(err)
	}

	stalled, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if _, err := stalled.Checkout("Root"); err != nil {
		t.Fatal(err)
	}
	// Now the client says nothing. The server must reap the connection and
	// release the lock; a fresh client polls until it wins the checkout.
	awaitLockReleased(t, addr, "Root", "idle timeout did not reap the silent client")
	if st, err := dial(t, addr).StatsInfo(); err != nil || st.OpenTxs != 0 {
		t.Errorf("reaped connection left %d transactions in flight (%v)", st.OpenTxs, err)
	}
	// The stalled client's connection is gone: its next request fails.
	if _, err := stalled.Stats(); err == nil {
		t.Error("stalled connection still answered after the idle timeout")
	}
}

// TestStatsStructured pins the schema of the structured stats response and
// its agreement with the database's own counters.
func TestStatsStructured(t *testing.T) {
	_, addr, db := startServer(t)
	a, _ := db.CreateObject("Data", "A")
	_, _ = db.CreateValueObject(a, "Description", seed.NewString("x"))
	b, _ := db.CreateObject("Action", "B")
	if _, err := db.CreateRelationship("Access", map[string]seed.ID{"from": a, "by": b}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.SaveVersion("v1"); err != nil {
		t.Fatal(err)
	}

	c := dial(t, addr)
	st, err := c.StatsInfo()
	if err != nil {
		t.Fatal(err)
	}
	want := db.Stats()
	if st.Objects != want.Core.Objects || st.Relationships != want.Core.Relationships {
		t.Errorf("counts diverge from db.Stats: %+v vs %+v", st, want)
	}
	if st.Objects != 3 || st.Relationships != 1 || st.Versions != 1 || st.SchemaVersion != 1 {
		t.Errorf("unexpected stats: %+v", st)
	}
	if st.Generation == 0 {
		t.Error("generation not reported")
	}
	if st.OpenTxs != 0 || st.WALSegments != 0 || st.WALBytes != 0 {
		t.Errorf("idle in-memory database reports activity: %+v", st)
	}
	// The v1 compatibility string still rides along.
	line, err := c.Stats()
	if err != nil || !strings.Contains(line, "objects=3") {
		t.Errorf("compat stats line = %q, %v", line, err)
	}
}

// TestStalledClientReleasesLocks: with an idle read timeout armed but NO
// write deadline, a client that floods requests, stops reading, and goes
// silent must still be reaped — the teardown closes the connection before
// draining, so a writer blocked on the stalled client's full TCP window
// cannot wedge the handlers and keep releaseAll from running.
func TestStalledClientReleasesLocks(t *testing.T) {
	_, addr, db := startServer(t, func(s *server.Server) { s.SetTimeouts(100*time.Millisecond, 0) }) // no write deadline
	root, err := db.CreateObject("Data", "Root")
	if err != nil {
		t.Fatal(err)
	}
	// A fat object: a handful of un-read responses fills the socket
	// buffers and blocks the server's writer.
	if _, err := db.CreateValueObject(root, "Description", seed.NewString(strings.Repeat("x", 1<<20))); err != nil {
		t.Fatal(err)
	}

	r := dialRaw(t, addr)
	r.roundTrip(&wire.Request{Op: wire.OpHello, Proto: wire.Proto})
	r.send(&wire.Request{Op: wire.OpCheckout, Seq: 1, Names: []string{"Root"}})
	// Flood pipelined gets of the fat object — deeper than the dispatch
	// semaphore plus the write channel together, so the reader ends up
	// blocked handing off work rather than sitting in Read — and never
	// read a byte again.
	for seq := uint64(2); seq < 130; seq++ {
		r.send(&wire.Request{Op: wire.OpGet, Seq: seq, Names: []string{"Root"}}) // 128 small request frames fit in the socket buffers
	}
	// Now silence. The idle deadline must reap the connection and free
	// the lock even though the writer is stuck on our un-read responses.
	awaitLockReleased(t, addr, "Root", "stalled connection wedged the teardown")
}
