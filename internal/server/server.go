// Package server implements the central-server half of SEED's two-level
// multi-user sketch (paper, section "Open problems"): the server runs the
// complete database; clients retrieve freely, but updates require checking
// out objects — which places write locks in the central database — and are
// applied at check-in as a single transaction.
package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/item"
	"repro/internal/wire"
	"repro/seed"
)

// Server serves one SEED database to many clients over wire protocol v2:
// each connection runs a reader goroutine, a serialized writer goroutine,
// and per-request dispatch (serveConn), so one connection can have many
// requests in flight — retrieval answers out of order against pinned
// snapshots while mutating requests keep the client's FIFO order.
// Retrieval operations (including server-side queries, handleQuery) run
// in parallel on snapshot views. Check-ins are lock-scoped and concurrent:
// each stages its batch in its own database transaction after validating
// that every touched root is covered by the client's check-out locks (new
// object names are reserved against concurrent creators), so check-ins with
// disjoint lock sets validate, stage, and commit in parallel, their commits
// coalescing into shared fsyncs in the group-commit write-ahead log.
// Whole-database operations (OpSaveVersion) take the barrier, which waits
// out in-flight check-ins and blocks new ones — a version can never freeze
// a half-applied batch, and clients never see a transaction-state error.
type Server struct {
	db *seed.Database
	ln net.Listener

	// barrier separates lock-scoped check-ins (readers) from whole-database
	// operations (writers): SaveVersion must never interleave with a
	// staged batch.
	barrier sync.RWMutex

	// Connection hygiene (SetTimeouts, before Listen). idleTimeout bounds
	// the gap between two frames from one client; writeTimeout bounds one
	// response write. A connection that trips either is closed, and its
	// cleanup (releaseAll) drops the client's locks, name reservations,
	// and in-flight check-in transaction — a stalled or vanished client
	// can no longer wedge its handler goroutine and everyone queued behind
	// its locks forever. Zero disables the respective deadline.
	idleTimeout  time.Duration
	writeTimeout time.Duration

	// Admission control (SetAdmission, before Listen): adm is the global
	// in-flight limit with its bounded wait queue; perConn bounds one
	// connection's pipelined dispatch (reads block in the reader loop —
	// natural TCP backpressure — rather than being shed, so one client
	// cannot monopolize the global budget).
	adm     admission
	perConn int
	met     *metrics

	// Follower serving (SetFollower/SetReplicaStatus, before Listen). A
	// follower server fronts a replica database: the whole read surface
	// answers from the replica's pinned snapshots, every mutating op is
	// refused with the retryable not-primary code (refusedOnFollower), and
	// OpStats reports the replication position replicaStatus observes.
	follower      bool
	replicaStatus func() (appliedGen, headGen, applied uint64)

	// Lifecycle. draining flips when Shutdown begins: new mutations are
	// refused with wire.ErrShuttingDown while in-flight check-ins finish;
	// ready mirrors it for the /readyz probe. stop is closed (once) when the
	// server force-closes connections, unblocking admission waiters.
	draining atomic.Bool
	ready    atomic.Bool
	stop     chan struct{}
	stopOnce sync.Once

	// planCounts tallies executed query operations per access path (index
	// = seed.Access), surfaced by OpStats as Stats.QueryPlans.
	planCounts [6]atomic.Uint64

	mu        sync.Mutex
	locks     map[string]string     // seed:guarded-by(mu) — object name -> client ID holding the lock
	creating  map[string]string     // seed:guarded-by(mu) — object name -> client ID creating it in an in-flight check-in
	inflight  map[string]*seed.Tx   // seed:guarded-by(mu) — client ID -> staged check-in transaction
	conns     map[net.Conn]struct{} // seed:guarded-by(mu) — open connections, for forced teardown
	mutActive int                   // seed:guarded-by(mu) — mutating requests being handled right now
	nextCli   int                   // seed:guarded-by(mu)

	wg     sync.WaitGroup
	closed bool // seed:guarded-by(mu)
	logf   func(format string, args ...any)

	jsonLog bool // SetLogFormat, before Listen
}

// New creates a server over a database.
func New(db *seed.Database) *Server {
	return &Server{
		db:       db,
		locks:    make(map[string]string),
		creating: make(map[string]string),
		inflight: make(map[string]*seed.Tx),
		conns:    make(map[net.Conn]struct{}),
		stop:     make(chan struct{}),
		met:      newMetrics(),
		perConn:  maxPipelinedReads,
		logf:     func(string, ...any) {},
	}
}

// SetAdmission configures overload protection: at most maxInflight
// requests execute at once across all connections, up to queueDepth more
// wait in FIFO order for a slot, and everything beyond that is shed
// immediately with the retryable overloaded code. perConn bounds one
// connection's concurrently dispatched requests (0 keeps the default);
// unlike the global limit it never sheds — the connection's reader simply
// stops pulling frames, which backpressures the client through the TCP
// window. maxInflight 0 disables the global gate. Call before Listen.
func (s *Server) SetAdmission(maxInflight, queueDepth, perConn int) {
	s.adm.configure(maxInflight, queueDepth)
	if perConn > 0 {
		s.perConn = perConn
	}
}

// SetTimeouts configures the per-connection idle read timeout (maximum gap
// between two client frames) and write deadline (maximum time one response
// write may block on a client that stopped reading). Zero disables a
// deadline — except that an armed idle timeout also bounds writes when no
// write deadline is given, so a client that stops reading cannot sidestep
// the idle hygiene by wedging the writer. Call before Listen.
func (s *Server) SetTimeouts(idleRead, write time.Duration) {
	s.idleTimeout = idleRead
	s.writeTimeout = write
}

// SetLogger installs a log function (e.g. log.Printf).
func (s *Server) SetLogger(logf func(format string, args ...any)) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s.logf = logf
}

// Listen starts accepting connections on addr ("127.0.0.1:0" for an
// ephemeral port) and returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	s.ready.Store(true)
	s.wg.Add(1)
	go s.acceptLoop()
	return ln.Addr().String(), nil
}

// Close stops the listener, force-closes every open connection, and waits
// for their handlers (each connection's teardown releases its locks, name
// reservations, and in-flight transaction). For a shutdown that lets
// in-flight check-ins finish first, use Shutdown.
func (s *Server) Close() error {
	s.ready.Store(false)
	s.draining.Store(true)
	s.mu.Lock()
	already := s.closed
	s.closed = true
	s.mu.Unlock()
	var err error
	if s.ln != nil && !already {
		err = s.ln.Close()
	}
	s.closeConns()
	s.wg.Wait()
	return err
}

// Shutdown drains the server gracefully: the listener closes (no new
// connections), the readiness probe flips to not-ready, new mutations are
// refused with the retryable shutting-down code while in-flight
// mutating requests — crucially, staged check-ins — run to group-commit
// durability, the write-ahead log's tail segment is sealed, and only then
// are the remaining connections closed. The drain wait is bounded by ctx:
// on expiry the remaining connections are torn down anyway (their staged
// transactions roll back, exactly as a disconnect would) and ctx's error
// is returned. A nil return means every accepted mutation reached
// durability before the tail was sealed.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()
	s.ready.Store(false)
	s.draining.Store(true)
	s.event("", "drain-begin")
	if s.ln != nil {
		_ = s.ln.Close()
	}

	// Wait out the mutating requests that were already executing (or
	// queued in a connection's FIFO lane) when the drain began. New ones
	// are refused above the database, so this converges as fast as the
	// slowest in-flight group commit — unless a wedged client holds one
	// up, which ctx bounds.
	var waitErr error
	for {
		s.mu.Lock()
		idle := s.mutActive == 0 && len(s.inflight) == 0
		s.mu.Unlock()
		if idle {
			break
		}
		select {
		case <-ctx.Done():
			waitErr = ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if waitErr != nil {
			break
		}
	}

	// Seal the WAL tail: everything acknowledged now lives in sealed,
	// immutable segments, so recovery after this clean exit never has to
	// reason about a torn tail.
	if err := s.db.SealLog(); err != nil && waitErr == nil {
		waitErr = err
	}

	s.closeConns()
	s.wg.Wait()
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.event("", "drain-complete", "err", fmt.Sprint(waitErr))
	return waitErr
}

// closeConns unblocks admission waiters and force-closes every open
// connection; their handlers run the usual teardown (releaseAll).
func (s *Server) closeConns() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.mu.Lock()
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

// maxPipelinedReads bounds how many retrieval requests one connection may
// have executing at once; excess pipelined requests queue in arrival order
// (backpressure eventually reaches the client through the TCP window).
const maxPipelinedReads = 32

// serveConn is the protocol v2 connection engine: this goroutine reads
// frames; retrieval requests (get, list, query, versions, completeness,
// stats) dispatch onto worker goroutines and execute concurrently against
// pinned frozen snapshots; mutating requests (checkout, checkin, release,
// save-version) flow through one mutation worker, which preserves the
// client's FIFO order — the claim discipline then lets different clients'
// check-ins run in parallel. Every response funnels through the serialized
// writer goroutine, which owns the connection's write side, so concurrent
// handlers never interleave frames. A frame of a retired protocol — a hello
// announcing less than v2, any other request without a Seq — is answered
// once with an error naming it, and the connection is torn down.
func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	s.mu.Lock()
	if s.closed {
		// Accepted in the race window while Close tore the listener down;
		// registering now would leak past closeConns' snapshot.
		s.mu.Unlock()
		return
	}
	s.conns[conn] = struct{}{}
	s.nextCli++
	clientID := "client-" + strconv.Itoa(s.nextCli)
	s.mu.Unlock()
	s.met.connsTotal.Add(1)
	s.event(clientID, "accept", "remote", conn.RemoteAddr().String())
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.releaseAll(clientID)
		s.event(clientID, "disconnect")
	}()

	// A stalled client must never disable the idle hygiene: when only the
	// idle timeout is armed, responses inherit it as the write bound.
	// Otherwise a client that fills the pipeline and stops reading parks
	// the writer in a deadline-less Write, the full write channel wedges
	// every handler, the reader blocks handing off work instead of
	// sitting in Read — and the armed read deadline never gets to fire.
	writeTimeout := s.writeTimeout
	if writeTimeout == 0 {
		writeTimeout = s.idleTimeout
	}
	writeCh := make(chan *wire.Response, s.perConn*2)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		bw := bufio.NewWriterSize(conn, 32<<10)
		w := wire.NewWriter(bw)
		broken := false
		for {
			resp, ok := <-writeCh
			if !ok {
				return
			}
			if broken {
				continue // drain so blocked handlers can finish
			}
			// The deadline is re-armed per response, not once per burst:
			// it must bound a stalled write, never the total transfer time
			// of a large coalesced burst to a healthy slow reader.
			arm := func() {
				if writeTimeout > 0 {
					_ = conn.SetWriteDeadline(time.Now().Add(writeTimeout))
				}
			}
			// Coalesce every response already queued into one buffered
			// burst and flush once — with k requests in flight, the
			// connection pays one write syscall for up to k responses
			// instead of one each.
			arm()
			err := w.Write(resp)
			for err == nil {
				var more *wire.Response
				select {
				case more, ok = <-writeCh:
					if !ok {
						break
					}
					arm()
					err = w.Write(more)
					continue
				default:
				}
				break
			}
			if err == nil {
				arm()
				err = bw.Flush()
			}
			if err != nil {
				broken = true
				conn.Close() // unblock the reader loop too
			}
			if !ok {
				return // channel closed during the burst; it is flushed
			}
		}
	}()

	// connDone tells long-lived publisher goroutines that this connection's
	// reader has exited: they are counted in handlers, and the write channel
	// closes after handlers drain, so a publisher must observe connDone (or
	// server stop) and return rather than block on a dead connection's
	// writeCh forever.
	connDone := make(chan struct{})

	var handlers sync.WaitGroup
	mutCh := make(chan admitted, s.perConn)
	handlers.Add(1)
	go func() {
		defer handlers.Done()
		for a := range mutCh {
			s.run(clientID, a.req, a.release, writeCh)
		}
	}()

	// Retrieval dispatch: pipelined reads fan out onto goroutines, at most
	// perConn at once, and execute in parallel against their pinned
	// snapshots; mutations keep their own FIFO lane.
	sem := make(chan struct{}, s.perConn)
	rd := wire.NewReader(bufio.NewReader(conn))
	rejected := false
	for {
		if s.idleTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(s.idleTimeout))
		}
		req := &wire.Request{}
		if err := rd.Read(req); err != nil {
			break // disconnect, protocol error, or idle timeout
		}
		if reason := unsupportedProto(req); reason != "" {
			s.met.countCode("error")
			s.event(clientID, "protocol-reject", "reason", reason)
			writeCh <- &wire.Response{Seq: req.Seq, Err: reason}
			rejected = true
			break
		}
		// Admission: every frame but the handshake takes a global
		// execution token before it is dispatched. A request that cannot
		// get one — limit reached, wait queue full — is shed right here
		// with the retryable overloaded code instead of parking in the
		// dispatch path; while this reader waits in the bounded queue it
		// pulls no further frames, which is the per-connection
		// backpressure. Hello stays un-gated so a saturated server still
		// answers handshakes (and probes) instantly.
		var release func()
		if req.Op != wire.OpHello {
			rel, ok, shed := s.adm.acquire(s.stop)
			if shed {
				running, queued := s.adm.gauges()
				resp := fail(fmt.Errorf("%w (%d in flight, %d queued)", wire.ErrOverloaded, running, queued))
				resp.Seq = req.Seq
				s.met.countCode(resp.Code)
				writeCh <- resp
				continue
			}
			if !ok {
				break // server teardown while waiting for admission
			}
			release = rel
		}
		// Log subscriptions never fit the request/response dispatch: one
		// request fans out into an unbounded response stream from a
		// dedicated publisher goroutine. Intercept before dispatch; the
		// admission token is returned immediately — a publisher is paced by
		// the subscriber's reads, not by the execution budget.
		if req.Op == wire.OpSubscribeLog {
			if release != nil {
				release()
			}
			if resp := s.startPublisher(req, writeCh, connDone, &handlers); resp != nil {
				resp.Seq = req.Seq
				writeCh <- resp
			}
			continue
		}
		if mutates(req.Op) {
			mutCh <- admitted{req: req, release: release}
			continue
		}
		sem <- struct{}{}
		handlers.Add(1)
		go func(req *wire.Request, release func()) {
			defer handlers.Done()
			defer func() { <-sem }()
			s.run(clientID, req, release, writeCh)
		}(req, release)
	}
	// The connection is done (disconnect, protocol error, or idle
	// timeout). Close it before draining: with no write deadline armed, a
	// stalled client could otherwise block the writer forever, wedge the
	// handlers behind the full write channel, and keep releaseAll — the
	// lock and transaction cleanup below — from ever running. After a
	// protocol rejection the writer must get that one answer out first, so
	// the socket stays open through the drain (the deferred Close ends it)
	// under a write deadline that bounds the same stall.
	if !rejected {
		conn.Close()
	} else if writeTimeout == 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(rejectFlushTimeout))
	}
	close(connDone)
	close(mutCh)
	handlers.Wait()
	close(writeCh)
	<-writerDone
}

// rejectFlushTimeout bounds the write of a protocol rejection on a server
// with no write deadline configured.
const rejectFlushTimeout = 5 * time.Second

// unsupportedProto names what makes a frame one of a retired protocol — a
// hello announcing less than v2, or any other request without the
// correlation id v2 requires (the v1 lockstep form); "" for a servable frame.
func unsupportedProto(req *wire.Request) string {
	switch {
	case req.Op == wire.OpHello && req.Proto < wire.ProtoV2:
		return fmt.Sprintf("server: unsupported protocol %d: hello must announce proto >= %d", req.Proto, wire.ProtoV2)
	case req.Op != wire.OpHello && req.Seq == 0:
		return fmt.Sprintf("server: unsupported protocol: %s request without a seq; protocol %d correlates every request", req.Op, wire.ProtoV2)
	}
	return ""
}

// admitted pairs a request with its admission-token release for the
// mutation FIFO lane.
type admitted struct {
	req     *wire.Request
	release func()
}

// run executes one admitted request: it times the handler, records the
// latency and outcome under the metrics plane, returns the admission
// token, and queues the response. The token is released before the
// response enters the write channel — a slow-reading client holds only
// its own connection's buffers, never the global execution budget — while
// the mutActive drain gauge stays up through the enqueue, so Shutdown's
// wait covers the response reaching the writer, not just the handler.
func (s *Server) run(clientID string, req *wire.Request, release func(), writeCh chan<- *wire.Response) {
	mut := mutates(req.Op)
	if mut {
		s.mu.Lock()
		s.mutActive++
		s.mu.Unlock()
	}
	start := time.Now()
	resp := s.handle(clientID, req)
	resp.Seq = req.Seq
	s.met.observe(req.Op, outcomeCode(resp), time.Since(start))
	if release != nil {
		release()
	}
	writeCh <- resp
	if mut {
		s.mu.Lock()
		s.mutActive--
		s.mu.Unlock()
	}
}

// refusedWhileDraining reports which ops a draining server refuses with
// the retryable shutting-down code: anything that would start new work —
// check-outs, check-ins, version freezes. Release stays allowed so
// clients can wind down their locks, and retrievals keep answering until
// the connections close. The switch enumerates every op with no default
// (opexhaustive) so a new op makes an explicit drain decision.
func refusedWhileDraining(op wire.Op) bool {
	switch op {
	case wire.OpCheckout, wire.OpCheckin, wire.OpSaveVersion,
		// A draining server is about to stop committing; a follower that
		// bootstrapped from it would stream from a log with no future.
		wire.OpSubscribeLog:
		return true
	case wire.OpHello, wire.OpGet, wire.OpList, wire.OpQuery, wire.OpRelease,
		wire.OpVersions, wire.OpCompleteness, wire.OpStats:
		return false
	}
	return false // unknown op: let dispatch reject it with its usual error
}

// refusedOnFollower reports which ops a follower server refuses with the
// retryable not-primary code: everything that mutates (the primary owns the
// commit order), and subscribe-log (followers do not chain — a follower's
// log position is not the primary's log). The whole retrieval surface stays:
// get, list, query, versions, completeness and stats answer from the
// replica's pinned snapshots. Same opexhaustive shape as the drain matrix: a
// new op must make an explicit follower decision.
func refusedOnFollower(op wire.Op) bool {
	switch op {
	case wire.OpCheckout, wire.OpCheckin, wire.OpRelease, wire.OpSaveVersion,
		wire.OpSubscribeLog:
		return true
	case wire.OpHello, wire.OpGet, wire.OpList, wire.OpQuery,
		wire.OpVersions, wire.OpCompleteness, wire.OpStats:
		return false
	}
	return false // unknown op: let dispatch reject it with its usual error
}

// mutates reports whether an op changes server or database state and must
// therefore keep its position in the client's FIFO order. Everything else
// reads an immutable snapshot and may execute (and answer) out of order.
// The switch enumerates every op with no default so that opexhaustive
// forces a FIFO-or-parallel decision when a new op is added: a new op
// silently defaulting to the parallel path would be an ordering bug.
func mutates(op wire.Op) bool {
	switch op {
	case wire.OpCheckout, wire.OpCheckin, wire.OpRelease, wire.OpSaveVersion:
		return true
	case wire.OpHello, wire.OpGet, wire.OpList, wire.OpVersions,
		wire.OpCompleteness, wire.OpStats, wire.OpQuery,
		// Intercepted before dispatch (serveConn); classified here only so
		// the defensive handle() path treats a stray one as non-mutating.
		wire.OpSubscribeLog:
		return false
	}
	return true // unknown op: keep FIFO order, dispatch rejects it anyway
}

// releaseAll cleans up after a disconnecting client: every lock it still
// holds, every name it reserved for creation, and — crucially for the
// concurrent check-in path — its in-flight staged transaction. A batch
// abandoned mid-stage must be rolled back here, or its claims would block
// every later check-in touching the same items forever.
func (s *Server) releaseAll(clientID string) {
	s.mu.Lock()
	for name, owner := range s.locks {
		if owner == clientID {
			delete(s.locks, name)
		}
	}
	for name, owner := range s.creating {
		if owner == clientID {
			delete(s.creating, name)
		}
	}
	tx := s.inflight[clientID]
	delete(s.inflight, clientID)
	s.mu.Unlock()
	if tx != nil {
		_ = tx.Rollback() // no-op when already finished
	}
}

func (s *Server) handle(clientID string, req *wire.Request) *wire.Response {
	if s.draining.Load() && refusedWhileDraining(req.Op) {
		return fail(wire.ErrShuttingDown)
	}
	if s.follower && refusedOnFollower(req.Op) {
		return fail(wire.ErrNotPrimary)
	}
	switch req.Op {
	case wire.OpHello:
		// serveConn has already refused a hello announcing less than v2.
		return &wire.Response{ClientID: clientID, Proto: wire.ProtoV2}
	case wire.OpGet:
		return s.handleGet(req)
	case wire.OpList:
		return s.handleList(req)
	case wire.OpQuery:
		return s.handleQuery(req)
	case wire.OpCheckout:
		return s.handleCheckout(clientID, req)
	case wire.OpCheckin:
		return s.handleCheckin(clientID, req)
	case wire.OpRelease:
		return s.handleRelease(clientID, req)
	case wire.OpSaveVersion:
		// Version freezes take the whole-database barrier: in-flight
		// check-ins drain first and new ones wait, so a version can never
		// capture a half-applied batch (and the database never returns
		// ErrTxOpen to a client).
		s.barrier.Lock()
		num, err := s.db.SaveVersion(req.Note)
		s.barrier.Unlock()
		if err != nil {
			return fail(err)
		}
		return &wire.Response{Version: num.String()}
	case wire.OpVersions:
		infos := s.db.Versions()
		out := make([]wire.VersionInfo, 0, len(infos))
		for _, in := range infos {
			out = append(out, wire.VersionInfo{
				Num: in.Num.String(), Note: in.Note,
				DeltaSize: in.DeltaSize, SchemaVer: in.SchemaVersion,
			})
		}
		return &wire.Response{Versions: out}
	case wire.OpCompleteness:
		fs := s.db.Completeness()
		out := make([]wire.Finding, 0, len(fs))
		for _, f := range fs {
			out = append(out, wire.Finding{Item: uint64(f.Item), Rule: string(f.Rule), Detail: f.Detail})
		}
		return &wire.Response{Findings: out}
	case wire.OpStats:
		st := s.db.Stats()
		s.mu.Lock()
		open := len(s.inflight)
		conns := len(s.conns)
		locks := len(s.locks)
		s.mu.Unlock()
		running, queued := s.adm.gauges()
		sv := &wire.Stats{
			Objects:       st.Core.Objects,
			Relationships: st.Core.Relationships,
			Patterns:      st.Core.Patterns,
			Deleted:       st.Core.DeletedObjects + st.Core.DeletedRels,
			Versions:      st.Versions,
			SchemaVersion: st.SchemaV,
			Generation:    st.Generation,
			OpenTxs:       open,
			WALSegments:   st.LogSegments,
			WALBytes:      st.LogBytes,
			Connections:   conns,
			Locks:         locks,
			InFlight:      running,
			Queued:        queued,
			Rejected:      s.adm.rejected.Load(),
			Draining:      s.draining.Load(),
			Follower:      s.follower,
		}
		if s.follower && s.replicaStatus != nil {
			appliedGen, headGen, _ := s.replicaStatus()
			sv.FollowerGen = appliedGen
			if headGen > appliedGen {
				sv.FollowerLag = headGen - appliedGen
			}
		}
		for a := range s.planCounts {
			if n := s.planCounts[a].Load(); n > 0 {
				if sv.QueryPlans == nil {
					sv.QueryPlans = make(map[string]uint64)
				}
				sv.QueryPlans[seed.Access(a).String()] = n
			}
		}
		return &wire.Response{
			// The one-line summary stays for shells.
			Stats: fmt.Sprintf("objects=%d rels=%d versions=%d schema=v%d",
				st.Core.Objects, st.Core.Relationships, st.Versions, st.SchemaV),
			StatsV2: sv,
		}
	case wire.OpSubscribeLog:
		// Unreachable through the normal path: serveConn intercepts
		// subscribe-log before dispatch (startPublisher). Kept for the
		// opexhaustive contract and as a defensive refusal.
		return fail(errors.New("server: subscribe-log must be the connection's streaming request"))
	}
	return fail(fmt.Errorf("server: unknown op %q", req.Op))
}

// fail converts an error into a response, preserving the error's identity
// as a wire code where one is defined.
func fail(err error) *wire.Response {
	return &wire.Response{Err: err.Error(), Code: codeOf(err)}
}

// codeOf maps an error onto its wire code: the error table's row, or the
// row of the seed sentinel it stands for (wire cannot import seed).
func codeOf(err error) string {
	switch {
	case errors.Is(err, seed.ErrTxConflict):
		err = wire.ErrConflict
	case errors.Is(err, seed.ErrNotPrimary):
		err = wire.ErrNotPrimary
	}
	if r := wire.RefusalOf(err); r != nil {
		return r.Code
	}
	return ""
}

func (s *Server) handleGet(req *wire.Request) *wire.Response {
	// One snapshot for the whole request: every returned subtree comes
	// from the same consistent state.
	v := s.db.View()
	var snaps []wire.Snapshot
	for _, name := range req.Names {
		snap, err := snapshotOf(v, name)
		if err != nil {
			return fail(err)
		}
		snaps = append(snaps, snap)
	}
	return &wire.Response{Snapshots: snaps}
}

func (s *Server) handleList(req *wire.Request) *wire.Response {
	v := s.db.View()
	q := seed.NewQuery()
	if req.Class != "" {
		q = q.Class(req.Class, true)
	}
	ids, err := q.Run(v)
	if err != nil {
		return fail(err)
	}
	var names []string
	for _, id := range ids {
		if o, ok := v.Object(id); ok && o.Independent() {
			names = append(names, o.Name)
		}
	}
	// Stable output: repeated OpList calls return the same order no matter
	// which snapshot or query path produced the IDs.
	sort.Strings(names)
	return &wire.Response{Names: names}
}

// handleQuery executes the wire form of a query server-side against one
// consistent indexed snapshot: the retrieval component's class-subtree,
// name-glob, and value-predicate selection (which starts from the snapshot's
// class and name indexes), then Follow navigation, then limit/offset paging
// of the final set — so a client fetches exactly the matching objects
// instead of downloading subtrees and filtering locally.
func (s *Server) handleQuery(req *wire.Request) *wire.Response {
	if req.Query == nil {
		return fail(fmt.Errorf("server: query request without a query body"))
	}
	v := s.db.View()
	ids, total, plan, err := execQuery(v, req.Query)
	if err != nil {
		return fail(err)
	}
	if a := int(plan.Access); a >= 0 && a < len(s.planCounts) {
		s.planCounts[a].Add(1)
	}
	objs := make([]wire.Object, 0, len(ids))
	size := 0
	for _, id := range ids {
		o, ok := v.Object(id)
		if !ok {
			continue
		}
		w := wireObject(v, o)
		size += len(w.Class) + len(w.Name) + len(w.Path) + len(w.Value) + 96
		objs = append(objs, w)
	}
	resp := &wire.Response{Objects: objs, Total: total, Plan: &wire.QueryPlan{
		Access:     plan.Access.String(),
		Index:      plan.Index,
		Est:        plan.Est,
		Candidates: plan.Candidates,
		Matched:    plan.Matched,
		Residual:   plan.Residual,
		Forced:     plan.Forced,
	}}
	// A result that cannot fit one frame must be paged, not kill the
	// connection (the per-connection writer treats an oversized frame as a
	// transport failure). The running size is a cheap lower bound; only a
	// result near the limit pays for the exact encoding check — a second
	// encode of an up-to-8 MiB payload, accepted for keeping the writer
	// path oblivious to response sizes.
	if size > wire.MaxFrame/8 {
		if payload, err := json.Marshal(resp); err != nil || len(payload) > wire.MaxFrame {
			return fail(fmt.Errorf("server: query result (%d objects) exceeds the %d-byte frame limit; page it with limit/offset", len(objs), wire.MaxFrame))
		}
	}
	return resp
}

// execQuery runs a wire query on a view: cost-based selection through the
// query engine, Follow steps, then paging. Paging applies to the final
// result set — after the Follow chain — so the selection itself runs
// unbounded and Total reports the unpaged match count. The returned plan
// reports the access path the planner executed.
func execQuery(v seed.View, wq *wire.Query) ([]seed.ID, int, *seed.Plan, error) {
	q := seed.NewQuery()
	if wq.Class != "" {
		q = q.Class(wq.Class, wq.Specs)
	}
	if wq.NameGlob != "" {
		q = q.NameGlob(wq.NameGlob)
	}
	for _, w := range wq.Where {
		op, err := seed.ParseCompareOp(w.Op)
		if err != nil {
			return nil, 0, nil, err
		}
		val, err := seed.ParseValue(seed.Kind(w.ValueKind), w.Value)
		if err != nil {
			return nil, 0, nil, err
		}
		q = q.Where(w.Path, op, val)
	}
	ids, plan, err := seed.RunPlan(q, v)
	if err != nil {
		return nil, 0, nil, err
	}
	steps := make([]seed.FollowStep, len(wq.Follow))
	for i, f := range wq.Follow {
		steps[i] = seed.FollowStep{Assoc: f.Assoc, From: f.From, To: f.To}
	}
	ids, total, err := seed.FollowPage(v, ids, steps, wq.Limit, wq.Offset)
	if err != nil {
		return nil, 0, nil, err
	}
	return ids, total, plan, nil
}

func (s *Server) handleCheckout(clientID string, req *wire.Request) *wire.Response {
	s.mu.Lock()
	// All-or-nothing locking. Track which locks this request newly
	// acquires: a failure must roll back only those, never locks the
	// client already held from an earlier checkout.
	for _, name := range req.Names {
		if owner, locked := s.locks[name]; locked && owner != clientID {
			s.mu.Unlock()
			return fail(fmt.Errorf("%w: %q held by %s", wire.ErrLocked, name, owner))
		}
	}
	var acquired []string
	for _, name := range req.Names {
		if _, held := s.locks[name]; !held {
			s.locks[name] = clientID
			acquired = append(acquired, name)
		}
	}
	s.mu.Unlock()

	v := s.db.View()
	var snaps []wire.Snapshot
	for _, name := range req.Names {
		snap, err := snapshotOf(v, name)
		if err != nil {
			// Roll back the locks acquired by this request.
			s.mu.Lock()
			for _, n := range acquired {
				if s.locks[n] == clientID {
					delete(s.locks, n)
				}
			}
			s.mu.Unlock()
			return fail(err)
		}
		snaps = append(snaps, snap)
	}
	s.event(clientID, "checkout", "names", fmt.Sprint(req.Names))
	return &wire.Response{Snapshots: snaps}
}

func (s *Server) handleRelease(clientID string, req *wire.Request) *wire.Response {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, name := range req.Names {
		if s.locks[name] == clientID {
			delete(s.locks, name)
		}
	}
	return &wire.Response{}
}

// handleCheckin applies the staged updates as one transaction. Every
// updated item must be covered by this client's locks (new independent
// objects need no lock; their names must be free, and they are reserved
// against concurrent creators for the duration of the check-in). Validation
// happens before staging: a batch whose roots are covered by the client's
// locks can neither overlap another in-flight batch nor fail conflict
// validation, so non-overlapping check-ins stage and commit fully in
// parallel, and their commits coalesce into shared fsyncs in the
// group-commit write-ahead log.
func (s *Server) handleCheckin(clientID string, req *wire.Request) *wire.Response {
	// Check-ins are readers of the whole-database barrier: many at once,
	// but never interleaved with a version freeze.
	s.barrier.RLock()
	defer s.barrier.RUnlock()

	// Collect the batch's touched roots and created names in order (a name
	// created earlier in the batch needs no lock).
	created := make(map[string]bool)
	var roots []string
	for _, u := range req.Updates {
		for _, root := range updateRoots(u, created) {
			if root != "" && !created[root] {
				roots = append(roots, root)
			}
		}
	}

	// Validate lock coverage and reserve created names in one atomic step.
	s.mu.Lock()
	for _, root := range roots {
		if owner, locked := s.locks[root]; !locked || owner != clientID {
			s.mu.Unlock()
			return fail(fmt.Errorf("%w: %q", wire.ErrNotLocked, root))
		}
	}
	var reserved []string
	for name := range created {
		if owner, locked := s.locks[name]; locked && owner != clientID {
			s.mu.Unlock()
			s.unreserve(reserved)
			return fail(fmt.Errorf("%w: cannot create %q", wire.ErrLocked, name))
		}
		if other, busy := s.creating[name]; busy && other != clientID {
			s.mu.Unlock()
			s.unreserve(reserved)
			return fail(fmt.Errorf("%w: %q is being created by %s", wire.ErrConflict, name, other))
		}
		s.creating[name] = clientID
		reserved = append(reserved, name)
	}
	s.mu.Unlock()
	defer s.unreserve(reserved)

	tx, err := s.db.BeginTx()
	if err != nil {
		return fail(err)
	}
	// Track the staged transaction so a disconnect (or a panic unwinding
	// this handler) aborts it instead of leaking its claims, and roll it
	// back on every early exit below.
	s.mu.Lock()
	s.inflight[clientID] = tx
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		if s.inflight[clientID] == tx {
			delete(s.inflight, clientID)
		}
		s.mu.Unlock()
		_ = tx.Rollback() // no-op once committed
	}()

	for i, u := range req.Updates {
		if err := applyUpdate(tx, u); err != nil {
			return fail(fmt.Errorf("server: update %d (%s): %w", i, u.Kind, err))
		}
	}
	if err := tx.Commit(); err != nil {
		return fail(err)
	}
	// Locks released after a successful check-in.
	s.mu.Lock()
	for _, name := range req.Names {
		if s.locks[name] == clientID {
			delete(s.locks, name)
		}
	}
	s.mu.Unlock()
	s.event(clientID, "checkin", "updates", len(req.Updates))
	return &wire.Response{}
}

// unreserve drops created-name reservations taken by a check-in.
func (s *Server) unreserve(names []string) {
	if len(names) == 0 {
		return
	}
	s.mu.Lock()
	for _, name := range names {
		delete(s.creating, name)
	}
	s.mu.Unlock()
}

// updateRoots returns the independent-object names an update touches, and
// tracks names created by this batch (which need no pre-existing lock).
// Relationship creation touches every end: it changes the participation
// counts of all of them.
func updateRoots(u wire.Update, created map[string]bool) []string {
	switch u.Kind {
	case wire.UpdateCreateObject:
		created[u.Name] = true
		return nil
	case wire.UpdateCreateRel:
		roots := make([]string, 0, len(u.Ends))
		for _, p := range u.Ends {
			roots = append(roots, rootOfPath(p))
		}
		return roots
	default:
		return []string{rootOfPath(u.Path)}
	}
}

func rootOfPath(p string) string {
	if i := strings.IndexByte(p, '.'); i >= 0 {
		return p[:i]
	}
	return p
}

// applyUpdate stages one wire update in the check-in's transaction. Paths
// resolve in the transaction's own view, so a batch can address items it
// created earlier — and never another in-flight batch's staged items.
func applyUpdate(tx *seed.Tx, u wire.Update) error {
	switch u.Kind {
	case wire.UpdateCreateObject:
		_, err := tx.CreateObject(u.Class, u.Name)
		return err
	case wire.UpdateCreateSub:
		parent, err := tx.ResolvePath(u.Path)
		if err != nil {
			return err
		}
		if u.ValueKind != 0 {
			val, err := seed.ParseValue(seed.Kind(u.ValueKind), u.Value)
			if err != nil {
				return err
			}
			_, err = tx.CreateValueObject(parent, u.Role, val)
			return err
		}
		_, err = tx.CreateSubObject(parent, u.Role)
		return err
	case wire.UpdateSetValue:
		id, err := tx.ResolvePath(u.Path)
		if err != nil {
			return err
		}
		val, err := seed.ParseValue(seed.Kind(u.ValueKind), u.Value)
		if err != nil {
			return err
		}
		return tx.SetValue(id, val)
	case wire.UpdateCreateRel:
		ends := make(map[string]seed.ID, len(u.Ends))
		for role, p := range u.Ends {
			id, err := tx.ResolvePath(p)
			if err != nil {
				return err
			}
			ends[role] = id
		}
		_, err := tx.CreateRelationship(u.Assoc, ends)
		return err
	case wire.UpdateDelete:
		id, err := tx.ResolvePath(u.Path)
		if err != nil {
			return err
		}
		return tx.Delete(id)
	case wire.UpdateReclassify:
		id, err := tx.ResolvePath(u.Path)
		if err != nil {
			return err
		}
		return tx.Reclassify(id, u.Class)
	}
	return fmt.Errorf("server: unknown update kind %q", u.Kind)
}

// snapshotOf copies an object subtree plus its relationships into wire
// form. The view is an immutable snapshot, so the whole walk is consistent
// and needs no locking.
func snapshotOf(v seed.View, name string) (wire.Snapshot, error) {
	root, ok := v.ObjectByName(name)
	if !ok {
		return wire.Snapshot{}, fmt.Errorf("server: no object named %q", name)
	}
	snap := wire.Snapshot{Root: name}
	var walk func(id seed.ID) error
	walk = func(id seed.ID) error {
		o, ok := v.Object(id)
		if !ok {
			return nil
		}
		snap.Objects = append(snap.Objects, wireObject(v, o))
		for _, ch := range v.Children(id, "") {
			if err := walk(ch); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(root); err != nil {
		return wire.Snapshot{}, err
	}
	for _, rid := range v.RelationshipsOf(root) {
		r, ok := v.Relationship(rid)
		if !ok || r.Inherits {
			continue
		}
		wr := wire.Relationship{ID: uint64(rid), Assoc: r.Assoc.Name(), Ends: map[string]string{}}
		for _, e := range r.Ends {
			if p, ok := seedPath(v, e.Object); ok {
				wr.Ends[e.Role] = p
			}
		}
		snap.Rels = append(snap.Rels, wr)
	}
	return snap, nil
}

// wireObject renders one object in wire form — the single shape the get
// and query paths both ship.
func wireObject(v seed.View, o seed.Object) wire.Object {
	w := wire.Object{ID: uint64(o.ID), Class: o.Class.QualifiedName()}
	if o.Independent() {
		w.Name = o.Name
	}
	if p, ok := seedPath(v, o.ID); ok {
		w.Path = p
	}
	if o.Value.IsDefined() {
		w.ValueKind = uint8(o.Value.Kind())
		w.Value = o.Value.String()
	}
	return w
}

func seedPath(v seed.View, id seed.ID) (string, bool) {
	p, ok := item.PathOf(v, id)
	if !ok {
		return "", false
	}
	return p.String(), true
}
