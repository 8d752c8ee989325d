// Package client implements the client half of SEED's two-level multi-user
// extension: retrieval goes to the central server; updates are staged
// against local copies in a Workspace and sent back in one check-in, which
// the server applies as a single transaction.
//
// The client speaks wire protocol 3 (wire.Proto): requests carry
// correlation ids, a demultiplexing goroutine routes responses to their
// callers through an in-flight map, and any number of goroutines may share
// one Client — the blocking calls (Get, Query, Checkout, ...) pipeline
// transparently, and Send/Await expose the pipeline directly for callers
// that want many requests in flight from one goroutine.
//
// A refusal the server reports with a wire code comes back as an error that
// wraps ErrRemote and the same wire sentinel the server returned
// (wire.ErrLocked, wire.ErrConflict, ...), so callers errors.Is-match the
// one value on either side of the wire. Classify reads the sentinel's retry
// class from the same wire.Refusals row; Retry backs off exponentially with
// jitter (capped, context-bounded) on the retryable class and gives up
// immediately on everything else.
package client

import (
	"bufio"
	"errors"
	"fmt"
	"maps"
	"net"
	"slices"
	"sort"
	"sync"

	"repro/internal/wire"
)

// ErrRemote is wrapped by every error a server reported in a response.
var ErrRemote = errors.New("client: server error")

// Client is one connection to a SEED server. It is safe for concurrent use:
// independent goroutines' requests interleave on the wire and their
// responses demultiplex back through the correlation map.
type Client struct {
	conn net.Conn
	id   string

	// Writes go through a buffered writer that is flushed when a caller
	// blocks awaiting a response (see flush), so a burst of pipelined sends
	// leaves the client as one wire write instead of one syscall each.
	wmu sync.Mutex    // serializes frame writes
	bw  *bufio.Writer // seed:guarded-by(wmu)
	wr  *wire.Writer  // seed:guarded-by(wmu)
	rd  *wire.Reader  // owned by the demux goroutine once it starts

	mu      sync.Mutex
	pending map[uint64]chan result         // seed:guarded-by(mu) — Seq -> caller awaiting the response
	streams map[uint64]chan *wire.Response // seed:guarded-by(mu) — Seq -> log-stream tap (SubscribeLog)
	nextSeq uint64                         // seed:guarded-by(mu)
	err     error                          // seed:guarded-by(mu) — sticky transport failure; set once the demux dies

	// done closes when the connection fails (after err is set), waking
	// stream readers; pending callers get their error delivered directly.
	done     chan struct{}
	doneOnce sync.Once
}

// result is one demultiplexed response delivery.
type result struct {
	resp *wire.Response
	err  error
}

// Dial connects and performs the hello handshake, announcing wire.Proto.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{
		conn:    conn,
		bw:      bufio.NewWriterSize(conn, 32<<10),
		rd:      wire.NewReader(bufio.NewReader(conn)),
		pending: make(map[uint64]chan result),
		done:    make(chan struct{}),
	}
	c.wr = wire.NewWriter(c.bw)
	// The hello runs lockstep: the demux starts only after the server has
	// answered it.
	if err := c.writeFlush(&wire.Request{Op: wire.OpHello, Proto: wire.Proto}); err != nil {
		conn.Close()
		return nil, err
	}
	var resp wire.Response
	if err := c.rd.Read(&resp); err != nil {
		conn.Close()
		return nil, err
	}
	if resp.Err != "" {
		conn.Close()
		return nil, remoteError(&resp)
	}
	if resp.Proto != wire.Proto {
		conn.Close()
		return nil, fmt.Errorf("client: server answered protocol %d, need %d", resp.Proto, wire.Proto)
	}
	c.id = resp.ClientID
	go c.demux()
	return c, nil
}

// ID returns the server-assigned client identity.
func (c *Client) ID() string { return c.id }

// Close closes the connection; the server drops any remaining locks, and
// every request still in flight fails. The failure is marked before the
// socket closes, so a Send racing with Close can never succeed into a
// buffer nobody will ever flush.
func (c *Client) Close() error {
	c.fail(errors.New("client: connection closed"))
	return nil
}

// demux routes incoming responses to their awaiting callers by correlation
// id. When the connection dies — Close, a network error, or a protocol
// violation — every pending and future request fails with the same sticky
// error.
func (c *Client) demux() {
	for {
		resp := &wire.Response{}
		if err := c.rd.Read(resp); err != nil {
			c.fail(fmt.Errorf("client: connection lost: %w", err))
			return
		}
		c.mu.Lock()
		if sch, isStream := c.streams[resp.Seq]; isStream {
			c.mu.Unlock()
			// A full stream tap blocks the demux: the reader stops pulling
			// frames and backpressure reaches the server through TCP. A
			// subscriber that stops consuming its stream therefore stalls
			// this whole connection — followers dedicate one.
			select {
			case sch <- resp:
			case <-c.done:
				return
			}
			continue
		}
		ch, ok := c.pending[resp.Seq]
		delete(c.pending, resp.Seq)
		c.mu.Unlock()
		if !ok {
			c.fail(fmt.Errorf("client: response with unmatched seq %d", resp.Seq))
			return
		}
		ch <- result{resp: resp}
	}
}

// fail marks the connection broken, closes the socket (a failed client
// never holds a live connection — the server then drops its locks), and
// delivers the error to every pending request exactly once.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	stranded := c.pending
	c.pending = make(map[uint64]chan result)
	c.mu.Unlock()
	c.conn.Close()
	// done closes strictly after err is published: a stream reader woken by
	// done always observes the sticky error.
	c.doneOnce.Do(func() { close(c.done) })
	for _, ch := range stranded {
		ch <- result{err: err}
	}
}

// writeFlush writes one frame and pushes it onto the wire immediately.
func (c *Client) writeFlush(v any) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.wr.Write(v); err != nil {
		return err
	}
	return c.bw.Flush()
}

// flush pushes buffered sends onto the wire. A flush failure kills the
// connection: the error reaches every pending request through fail.
func (c *Client) flush() {
	c.wmu.Lock()
	err := c.bw.Flush()
	c.wmu.Unlock()
	if err != nil {
		c.fail(fmt.Errorf("client: connection lost: %w", err))
	}
}

// Pending is one in-flight request; Await blocks until its response
// arrives.
type Pending struct {
	c  *Client
	ch chan result
}

// Send stages a request on the pipeline and returns a handle to await its
// response; it never waits for the server. The frame is buffered and hits
// the wire when some caller blocks in Await (or another request flushes),
// so bursts of sends coalesce into single writes. Mutating requests sent
// this way still execute in send order — the server preserves per-client
// FIFO order for them — so a checkout may be followed immediately by the
// check-in that depends on it.
func (c *Client) Send(req *wire.Request) (*Pending, error) {
	ch := make(chan result, 1)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	c.nextSeq++
	seq := c.nextSeq
	c.pending[seq] = ch
	c.mu.Unlock()
	req.Seq = seq

	c.wmu.Lock()
	err := c.wr.Write(req)
	c.wmu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.pending, seq)
		c.mu.Unlock()
		return nil, err
	}
	return &Pending{c: c, ch: ch}, nil
}

// Await blocks until the response arrives and maps remote failures onto
// the client's matchable error values. It first flushes the send buffer —
// the request (and everything staged behind it) cannot be answered while
// it sits client-side.
func (p *Pending) Await() (*wire.Response, error) {
	select {
	case r := <-p.ch:
		return p.finish(r)
	default:
	}
	p.c.flush()
	return p.finish(<-p.ch)
}

func (p *Pending) finish(r result) (*wire.Response, error) {
	if r.err != nil {
		return nil, r.err
	}
	if r.resp.Err != "" {
		return nil, remoteError(r.resp)
	}
	return r.resp, nil
}

// roundTrip issues one blocking request on the pipeline (other goroutines'
// requests interleave freely).
func (c *Client) roundTrip(req *wire.Request) (*wire.Response, error) {
	p, err := c.Send(req)
	if err != nil {
		return nil, err
	}
	return p.Await()
}

// remoteError rebuilds a matchable error from a failure response: every
// remote error wraps ErrRemote, and a response carrying a wire code
// additionally wraps that code's sentinel.
func remoteError(resp *wire.Response) error {
	if r := wire.RefusalByCode(resp.Code); r != nil {
		return fmt.Errorf("%w: %w", ErrRemote, refusal{resp.Err, r.Err})
	}
	return fmt.Errorf("%w: %s", ErrRemote, resp.Err)
}

// refusal is a coded failure response: it reads as the server's message,
// which already starts with the sentinel's text, and matches the sentinel.
type refusal struct {
	msg      string
	sentinel error
}

func (e refusal) Error() string { return e.msg }
func (e refusal) Unwrap() error { return e.sentinel }

// Get retrieves object subtrees by name (no locks).
func (c *Client) Get(names ...string) ([]wire.Snapshot, error) {
	resp, err := c.roundTrip(&wire.Request{Op: wire.OpGet, Names: names})
	if err != nil {
		return nil, err
	}
	return resp.Snapshots, nil
}

// List lists independent object names, optionally restricted to a class
// (with specializations).
func (c *Client) List(class string) ([]string, error) {
	resp, err := c.roundTrip(&wire.Request{Op: wire.OpList, Class: class})
	if err != nil {
		return nil, err
	}
	names := append([]string(nil), resp.Names...)
	sort.Strings(names)
	return names, nil
}

// Query executes a query server-side against one consistent indexed
// snapshot: selection by class (optionally with specializations), name
// glob, and typed value predicates, then Follow navigation, with
// limit/offset paging of the final set. It returns the page of matching
// objects and the total match count before paging, so callers fetching a
// large result advance Offset until the pages cover Total.
func (c *Client) Query(q *wire.Query) ([]wire.Object, int, error) {
	objs, total, _, err := c.QueryPlan(q)
	return objs, total, err
}

// QueryPlan executes a query like Query and also returns the access plan
// the server's planner executed — the explain surface of the wire
// protocol. The plan is nil when the server predates plan reporting.
func (c *Client) QueryPlan(q *wire.Query) ([]wire.Object, int, *wire.QueryPlan, error) {
	resp, err := c.roundTrip(&wire.Request{Op: wire.OpQuery, Query: q})
	if err != nil {
		return nil, 0, nil, err
	}
	return resp.Objects, resp.Total, resp.Plan, nil
}

// SaveVersion snapshots the central database.
func (c *Client) SaveVersion(note string) (string, error) {
	resp, err := c.roundTrip(&wire.Request{Op: wire.OpSaveVersion, Note: note})
	if err != nil {
		return "", err
	}
	return resp.Version, nil
}

// Versions lists the central database's versions.
func (c *Client) Versions() ([]wire.VersionInfo, error) {
	resp, err := c.roundTrip(&wire.Request{Op: wire.OpVersions})
	if err != nil {
		return nil, err
	}
	return resp.Versions, nil
}

// Completeness runs the completeness check on the central database.
func (c *Client) Completeness() ([]wire.Finding, error) {
	resp, err := c.roundTrip(&wire.Request{Op: wire.OpCompleteness})
	if err != nil {
		return nil, err
	}
	return resp.Findings, nil
}

// Stats returns a one-line state summary.
func (c *Client) Stats() (string, error) {
	resp, err := c.roundTrip(&wire.Request{Op: wire.OpStats})
	if err != nil {
		return "", err
	}
	return resp.Stats, nil
}

// StatsInfo returns the structured state summary.
func (c *Client) StatsInfo() (wire.Stats, error) {
	resp, err := c.roundTrip(&wire.Request{Op: wire.OpStats})
	if err != nil {
		return wire.Stats{}, err
	}
	if resp.StatsV2 == nil {
		return wire.Stats{}, fmt.Errorf("%w: server sent no structured stats", ErrRemote)
	}
	return *resp.StatsV2, nil
}

// Release drops locks without updating.
func (c *Client) Release(names ...string) error {
	_, err := c.roundTrip(&wire.Request{Op: wire.OpRelease, Names: names})
	return err
}

// Checkout locks the named objects in the central database and returns a
// workspace holding local copies. Updates staged in the workspace are
// applied by Commit as a single transaction.
func (c *Client) Checkout(names ...string) (*Workspace, error) {
	resp, err := c.roundTrip(&wire.Request{Op: wire.OpCheckout, Names: names})
	if err != nil {
		return nil, err
	}
	ws := &Workspace{
		client: c,
		roots:  append([]string(nil), names...),
		copies: make(map[string]wire.Snapshot, len(resp.Snapshots)),
	}
	for _, s := range resp.Snapshots {
		ws.copies[s.Root] = s
	}
	return ws, nil
}

// Workspace holds checked-out local copies and staged updates.
type Workspace struct {
	client  *Client
	roots   []string
	copies  map[string]wire.Snapshot
	updates []wire.Update
	done    bool
}

// Roots returns the checked-out object names.
func (w *Workspace) Roots() []string { return append([]string(nil), w.roots...) }

// Copy returns the local copy of a checked-out object subtree.
func (w *Workspace) Copy(root string) (wire.Snapshot, bool) {
	s, ok := w.copies[root]
	return s, ok
}

// Staged returns the number of staged updates.
func (w *Workspace) Staged() int { return len(w.updates) }

// CreateObject stages creation of a new independent object.
func (w *Workspace) CreateObject(class, name string) {
	w.updates = append(w.updates, wire.Update{Kind: wire.UpdateCreateObject, Class: class, Name: name})
}

// CreateSub stages creation of a structured sub-object under a path.
func (w *Workspace) CreateSub(parentPath, role string) {
	w.updates = append(w.updates, wire.Update{Kind: wire.UpdateCreateSub, Path: parentPath, Role: role})
}

// CreateValue stages creation of a value sub-object under a path.
func (w *Workspace) CreateValue(parentPath, role string, kind uint8, value string) {
	w.updates = append(w.updates, wire.Update{
		Kind: wire.UpdateCreateSub, Path: parentPath, Role: role,
		ValueKind: kind, Value: value,
	})
}

// SetValue stages a value update at a path.
func (w *Workspace) SetValue(path string, kind uint8, value string) {
	w.updates = append(w.updates, wire.Update{Kind: wire.UpdateSetValue, Path: path, ValueKind: kind, Value: value})
}

// CreateRelationship stages a relationship between paths, keyed by role.
func (w *Workspace) CreateRelationship(assoc string, ends map[string]string) {
	u := wire.Update{Kind: wire.UpdateCreateRel, Assoc: assoc}
	for _, role := range slices.Sorted(maps.Keys(ends)) {
		u.Ends = append(u.Ends, wire.End{Role: role, Path: ends[role]})
	}
	w.updates = append(w.updates, u)
}

// Delete stages a deletion at a path.
func (w *Workspace) Delete(path string) {
	w.updates = append(w.updates, wire.Update{Kind: wire.UpdateDelete, Path: path})
}

// Reclassify stages a re-classification at a path.
func (w *Workspace) Reclassify(path, newClass string) {
	w.updates = append(w.updates, wire.Update{Kind: wire.UpdateReclassify, Path: path, Class: newClass})
}

// Commit sends the staged updates for application as a single transaction
// and releases the locks on success. The workspace is spent afterwards.
func (w *Workspace) Commit() error {
	if w.done {
		return errors.New("client: workspace already committed or abandoned")
	}
	_, err := w.client.roundTrip(&wire.Request{
		Op:      wire.OpCheckin,
		Names:   w.roots,
		Updates: w.updates,
	})
	if err != nil {
		return err
	}
	w.done = true
	return nil
}

// Abandon drops the staged updates and releases the locks.
func (w *Workspace) Abandon() error {
	if w.done {
		return nil
	}
	w.done = true
	return w.client.Release(w.roots...)
}
