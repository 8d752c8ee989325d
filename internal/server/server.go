// Package server implements the central-server half of SEED's two-level
// multi-user sketch (paper, section "Open problems"): the server runs the
// complete database; clients retrieve freely, but updates require checking
// out objects — which places write locks in the central database — and are
// applied at check-in as a single transaction.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
	"repro/seed"
)

// Server serves one SEED database to many clients over the wire protocol:
// each connection (conn) runs a reader goroutine, a serialized writer
// goroutine, and per-request dispatch on the lane the op table (routes)
// names, so one connection can have many requests in flight — retrieval
// answers out of order against pinned snapshots while mutating requests
// keep the client's FIFO order. Retrieval operations (including
// server-side queries, handleQuery) run in parallel on snapshot views.
// Check-ins are lock-scoped and concurrent:
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
	// answers from the replica's pinned snapshots, every op its routes row
	// marks is refused with the retryable not-primary code, and
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

// handleHello answers the handshake; readLoop has already refused one
// announcing another version than wire.Proto.
func (s *Server) handleHello(c *conn, _ *wire.Request) *wire.Response {
	return &wire.Response{ClientID: c.id, Proto: wire.Proto}
}

func (s *Server) handleCheckout(c *conn, req *wire.Request) *wire.Response {
	s.mu.Lock()
	// All-or-nothing locking. Track which locks this request newly
	// acquires: a failure must roll back only those, never locks the
	// client already held from an earlier checkout.
	for _, name := range req.Names {
		if owner, locked := s.locks[name]; locked && owner != c.id {
			s.mu.Unlock()
			return fail(fmt.Errorf("%w: %q held by %s", wire.ErrLocked, name, owner))
		}
	}
	var acquired []string
	for _, name := range req.Names {
		if _, held := s.locks[name]; !held {
			s.locks[name] = c.id
			acquired = append(acquired, name)
		}
	}
	s.mu.Unlock()

	v := s.db.View()
	snaps := make([]wire.Snapshot, 0, len(req.Names))
	for _, name := range req.Names {
		snap, err := snapshotOf(v, name)
		if err != nil {
			// Roll back the locks acquired by this request.
			s.mu.Lock()
			for _, n := range acquired {
				if s.locks[n] == c.id {
					delete(s.locks, n)
				}
			}
			s.mu.Unlock()
			return fail(err)
		}
		snaps = append(snaps, snap)
	}
	s.event(c.id, "checkout", "names", fmt.Sprint(req.Names))
	return &wire.Response{Snapshots: snaps}
}

func (s *Server) handleRelease(c *conn, req *wire.Request) *wire.Response {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, name := range req.Names {
		if s.locks[name] == c.id {
			delete(s.locks, name)
		}
	}
	return &wire.Response{}
}

// handleSaveVersion freezes a version under the whole-database barrier:
// in-flight check-ins drain first and new ones wait, so a version can never
// capture a half-applied batch (and the database never returns ErrTxOpen to
// a client).
func (s *Server) handleSaveVersion(_ *conn, req *wire.Request) *wire.Response {
	s.barrier.Lock()
	num, err := s.db.SaveVersion(req.Note)
	s.barrier.Unlock()
	if err != nil {
		return fail(err)
	}
	return &wire.Response{Version: num.String()}
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
func (s *Server) handleCheckin(c *conn, req *wire.Request) *wire.Response {
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

	reserved, err := s.reserve(c.id, roots, created)
	if err != nil {
		return fail(err)
	}
	defer s.unreserve(reserved)

	tx, err := s.db.BeginTx()
	if err != nil {
		return fail(err)
	}
	// Track the staged transaction so a disconnect (or a panic unwinding
	// this handler) aborts it instead of leaking its claims, and roll it
	// back on every early exit below.
	s.mu.Lock()
	s.inflight[c.id] = tx
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		if s.inflight[c.id] == tx {
			delete(s.inflight, c.id)
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
	s.handleRelease(c, req) // a successful check-in releases the locks it names
	s.event(c.id, "checkin", "updates", len(req.Updates))
	return &wire.Response{}
}

// reserve validates lock coverage and reserves created names in one atomic
// step: clientID must hold the lock on every root the batch touches, and the
// names the batch creates are reserved against concurrent creators. The
// caller unreserves the returned names when the check-in ends.
func (s *Server) reserve(clientID string, roots []string, created map[string]bool) ([]string, error) {
	s.mu.Lock()
	for _, root := range roots {
		if owner, locked := s.locks[root]; !locked || owner != clientID {
			s.mu.Unlock()
			return nil, fmt.Errorf("%w: %q", wire.ErrNotLocked, root)
		}
	}
	var reserved []string
	for name := range created {
		if owner, locked := s.locks[name]; locked && owner != clientID {
			s.mu.Unlock()
			s.unreserve(reserved)
			return nil, fmt.Errorf("%w: cannot create %q", wire.ErrLocked, name)
		}
		if other, busy := s.creating[name]; busy && other != clientID {
			s.mu.Unlock()
			s.unreserve(reserved)
			return nil, fmt.Errorf("%w: %q is being created by %s", wire.ErrConflict, name, other)
		}
		s.creating[name] = clientID
		reserved = append(reserved, name)
	}
	s.mu.Unlock()
	return reserved, nil
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
		for _, end := range u.Ends {
			roots = append(roots, rootOfPath(end.Path))
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
		for _, end := range u.Ends {
			if _, dup := ends[end.Role]; dup {
				return fmt.Errorf("server: relationship end %q given twice", end.Role)
			}
			id, err := tx.ResolvePath(end.Path)
			if err != nil {
				return err
			}
			ends[end.Role] = id
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
