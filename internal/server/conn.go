package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"repro/internal/wire"
)

// lane is where a routed request executes.
type lane uint8

const (
	// laneRead: one of the connection's read workers, at most perConn of
	// them, against a pinned immutable snapshot; answers may overtake each
	// other.
	laneRead lane = iota
	// laneFIFO: the connection's one mutation worker, which keeps the
	// client's order — a check-in pipelined behind its checkout finds the
	// locks in place — and counts toward Shutdown's drain wait.
	laneFIFO
	// laneStream: inline in readLoop, after returning the admission token —
	// the publisher the handler starts is paced by the subscriber's reads,
	// not by the execution budget.
	laneStream
)

// route is one row of the op table.
type route struct {
	lane     lane
	ungated  bool // skips admission, so a saturated server still answers handshakes
	drain    bool // a draining server refuses it with wire.ErrShuttingDown
	follower bool // a follower refuses it with wire.ErrNotPrimary
	handle   func(s *Server, c *conn, req *wire.Request) *wire.Response
}

// routes is the op table, the one place an op's policy is spelled;
// opexhaustive holds it to a row per declared op. A draining server refuses
// what would start new work — check-outs, check-ins, version freezes, and a
// log subscription to a log with no future — while release and retrieval
// keep answering so clients can wind down. A follower refuses everything
// that mutates (the primary owns the commit order) and subscribe-log
// (followers do not chain); its retrieval answers from the replica.
var routes = map[wire.Op]route{
	// lane, ungated, drain, follower, handler
	wire.OpHello:        {laneRead, true, false, false, (*Server).handleHello},
	wire.OpGet:          {laneRead, false, false, false, (*Server).handleGet},
	wire.OpList:         {laneRead, false, false, false, (*Server).handleList},
	wire.OpQuery:        {laneRead, false, false, false, (*Server).handleQuery},
	wire.OpVersions:     {laneRead, false, false, false, (*Server).handleVersions},
	wire.OpCompleteness: {laneRead, false, false, false, (*Server).handleCompleteness},
	wire.OpStats:        {laneRead, false, false, false, (*Server).handleStats},
	wire.OpCheckout:     {laneFIFO, false, true, true, (*Server).handleCheckout},
	wire.OpCheckin:      {laneFIFO, false, true, true, (*Server).handleCheckin},
	wire.OpRelease:      {laneFIFO, false, false, true, (*Server).handleRelease},
	wire.OpSaveVersion:  {laneFIFO, false, true, true, (*Server).handleSaveVersion},
	wire.OpSubscribeLog: {laneStream, false, true, true, (*Server).handleSubscribeLog},
}

// unknownOp routes an op the table has no row for: admitted, answered with
// an uncoded error on the FIFO lane, and the connection stays open.
var unknownOp = route{lane: laneFIFO, handle: func(_ *Server, _ *conn, req *wire.Request) *wire.Response {
	return fail(fmt.Errorf("server: unknown op %q", req.Op))
}}

// maxPipelinedReads is the default perConn: how many retrieval requests
// one connection may have executing at once.
const maxPipelinedReads = 32

// rejectFlushTimeout bounds the write of a protocol rejection on a server
// with no write deadline configured.
const rejectFlushTimeout = 5 * time.Second

// conn is one client connection: readLoop admits frames and dispatches
// each on its route's lane; every response funnels through writeLoop, which
// owns the write side, so concurrent handlers never interleave frames.
type conn struct {
	s  *Server
	id string // client ID: owner of the connection's locks
	nc net.Conn
	// writeBound is the deadline of one response write. When only the idle
	// timeout is armed, responses inherit it: a client that fills the
	// pipeline and stops reading would otherwise park the writer in a
	// deadline-less Write, wedge every handler behind the full write
	// channel, and keep the reader from ever reaching its read deadline.
	writeBound time.Duration
	writeCh    chan *wire.Response // two pipelines deep, so handlers rarely wait on the writer
	// done closes when readLoop exits. writeCh closes only after handlers
	// drain, so a publisher (counted in handlers) must give up on done
	// rather than block on a dead connection's writeCh forever.
	done     chan struct{}
	handlers sync.WaitGroup
	fifo     chan admitted // the mutation lane, in the client's order
	// The read lane: reads hands a request to a parked worker. A worker
	// puts a token in idle before it queues its response, so by the time
	// a client sees an answer the worker that gave it counts as idle and a
	// lockstep client is served by one worker throughout. readWorkers is
	// the number started, read and written by readLoop alone.
	reads       chan admitted
	idle        chan struct{} // perConn deep: one token per worker at most
	readWorkers int
}

// admitted is one request on the mutation lane, with its route and its
// admission-token release.
type admitted struct {
	rt      route
	req     *wire.Request
	release func()
}

func (s *Server) serveConn(nc net.Conn) {
	defer nc.Close()
	s.mu.Lock()
	if s.closed {
		// Accepted in the race window while Close tore the listener down;
		// registering now would leak past closeConns' snapshot.
		s.mu.Unlock()
		return
	}
	s.conns[nc] = struct{}{}
	s.nextCli++
	c := &conn{s: s, id: "client-" + strconv.Itoa(s.nextCli), nc: nc, writeBound: s.writeTimeout,
		writeCh: make(chan *wire.Response, s.perConn*2), done: make(chan struct{}),
		fifo: make(chan admitted, s.perConn), reads: make(chan admitted), idle: make(chan struct{}, s.perConn)}
	s.mu.Unlock()
	if c.writeBound == 0 {
		c.writeBound = s.idleTimeout
	}
	s.met.connsTotal.Add(1)
	s.event(c.id, "accept", "remote", nc.RemoteAddr().String())
	defer func() {
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
		s.releaseAll(c.id)
		s.event(c.id, "disconnect")
	}()

	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		c.writeLoop()
	}()
	c.handlers.Add(1)
	go func() {
		defer c.handlers.Done()
		for a := range c.fifo {
			c.run(a.rt, a.req, a.release)
		}
	}()

	// Teardown, whatever ended the reader: close the socket before draining,
	// or a stalled client could block the writer, wedge the handlers behind
	// the full write channel, and keep releaseAll from ever running. After a
	// protocol rejection the writer must get that one answer out first, so
	// the socket stays open through the drain (the deferred Close ends it)
	// under a write deadline that bounds the same stall.
	if rejected := c.readLoop(); !rejected {
		nc.Close()
	} else if c.writeBound == 0 {
		_ = nc.SetWriteDeadline(time.Now().Add(rejectFlushTimeout))
	}
	close(c.done)
	close(c.fifo)
	close(c.reads)
	c.handlers.Wait()
	close(c.writeCh)
	<-writerDone
}

// readLoop pulls frames until the client goes away, admits each and hands
// it to dispatch. A frame of a retired protocol — a hello announcing
// another version, any other request without a Seq — is answered once with
// an error naming it and ends the loop with rejected set. A payload that
// does not decode (a protocol-2 JSON frame, say) cannot be answered in a
// form its sender reads: it is logged and ends the loop unanswered.
func (c *conn) readLoop() (rejected bool) {
	s := c.s
	rd := wire.NewReader(bufio.NewReader(c.nc))
	for {
		if s.idleTimeout > 0 {
			_ = c.nc.SetReadDeadline(time.Now().Add(s.idleTimeout))
		}
		req := &wire.Request{}
		if err := rd.Read(req); err != nil {
			if errors.Is(err, wire.ErrBadFrame) {
				s.event(c.id, "protocol-reject", "reason", err.Error())
			}
			return false // disconnect, protocol error, or idle timeout
		}
		if reason := unsupportedProto(req); reason != "" {
			s.met.countCode("error")
			s.event(c.id, "protocol-reject", "reason", reason)
			c.writeCh <- &wire.Response{Seq: req.Seq, Err: reason}
			return true
		}
		rt, ok := routes[req.Op]
		if !ok {
			rt = unknownOp
		}
		// Admission: a gated request takes a global execution token before
		// dispatch. One that cannot get it — limit reached, wait queue full
		// — is shed right here with the retryable overloaded code; while
		// this reader waits in the bounded queue it pulls no further frames,
		// which is the per-connection backpressure.
		var release func()
		if !rt.ungated {
			rel, ok, shed := s.adm.acquire(s.stop)
			if shed {
				running, queued := s.adm.gauges()
				resp := fail(fmt.Errorf("%w (%d in flight, %d queued)", wire.ErrOverloaded, running, queued))
				resp.Seq = req.Seq
				s.met.countCode(resp.Code)
				c.writeCh <- resp
				continue
			}
			if !ok {
				return false // server teardown while waiting for admission
			}
			release = rel
		}
		c.dispatch(rt, req, release)
	}
}

// unsupportedProto names what makes a frame one of another protocol — a
// hello announcing a version other than wire.Proto, or any other request
// without the correlation id the protocol requires (the v1 lockstep form);
// "" for a servable frame.
func unsupportedProto(req *wire.Request) string {
	switch {
	case req.Op == wire.OpHello && req.Proto != wire.Proto:
		return fmt.Sprintf("server: unsupported protocol %d: hello must announce proto %d", req.Proto, wire.Proto)
	case req.Op != wire.OpHello && req.Seq == 0:
		return fmt.Sprintf("server: unsupported protocol: %s request without a seq; protocol %d correlates every request", req.Op, wire.Proto)
	}
	return ""
}

// dispatch runs one admitted request on its route's lane.
func (c *conn) dispatch(rt route, req *wire.Request, release func()) {
	switch rt.lane {
	case laneFIFO:
		c.fifo <- admitted{rt, req, release}
	case laneStream:
		if release != nil {
			release()
		}
		c.run(rt, req, nil)
	case laneRead:
		a := admitted{rt, req, release}
		select {
		case <-c.idle:
		default:
			if c.readWorkers < c.s.perConn {
				c.readWorkers++
				c.s.met.readWorkers.Add(1)
				c.handlers.Add(1)
				go c.readWorker(a)
				return
			}
			<-c.idle // all perConn busy: wait for the first to finish
		}
		c.reads <- a
	}
}

// readWorker runs reads until the connection's reader exits and closes
// reads: a worker's stack, grown by its first request, serves the next.
func (c *conn) readWorker(a admitted) {
	defer c.handlers.Done()
	for ok := true; ok; a, ok = <-c.reads {
		c.run(a.rt, a.req, a.release)
	}
}

// run executes one admitted request: it applies the route's refusals — the
// one place a draining or follower server refuses an op — or else runs the
// handler, records latency and outcome, returns the admission token, and
// queues the response. The token is released before the response enters the
// write channel — a slow-reading client holds only its own connection's
// buffers, never the global execution budget — while the mutActive drain
// gauge stays up through the enqueue, so Shutdown's wait covers the response
// reaching the writer. A nil response means the handler's stream owns the
// request's Seq.
func (c *conn) run(rt route, req *wire.Request, release func()) {
	s := c.s
	if rt.lane == laneFIFO {
		s.mu.Lock()
		s.mutActive++
		s.mu.Unlock()
		defer func() {
			s.mu.Lock()
			s.mutActive--
			s.mu.Unlock()
		}()
	}
	start := time.Now()
	var resp *wire.Response
	switch {
	case rt.drain && s.draining.Load():
		resp = fail(wire.ErrShuttingDown)
	case rt.follower && s.follower:
		resp = fail(wire.ErrNotPrimary)
	default:
		resp = rt.handle(s, c, req)
	}
	code := ""
	if resp != nil {
		resp.Seq = req.Seq
		code = outcomeCode(resp)
	}
	s.met.observe(req.Op, code, time.Since(start))
	if release != nil {
		release()
	}
	if rt.lane == laneRead {
		c.idle <- struct{}{} // never blocks: at most one token per worker
	}
	if resp != nil {
		c.writeCh <- resp
	}
}

// send queues a response unless the reader has exited or the server stops
// first, and reports whether it did; publishers send through it.
func (c *conn) send(resp *wire.Response) bool {
	select {
	case c.writeCh <- resp:
		return true
	case <-c.done:
		return false
	case <-c.s.stop:
		return false
	}
}

// writeLoop owns the write side until writeCh closes. It coalesces: every
// response already queued joins one buffered burst and one flush, so k
// requests in flight cost one write syscall, not k. After a write error it
// keeps draining so blocked handlers can finish.
func (c *conn) writeLoop() {
	// The deadline is re-armed per response, not once per burst: it must
	// bound a stalled write, never the total transfer time of a large
	// coalesced burst to a healthy slow reader.
	arm := func() {
		if c.writeBound > 0 {
			_ = c.nc.SetWriteDeadline(time.Now().Add(c.writeBound))
		}
	}
	bw := bufio.NewWriterSize(c.nc, 32<<10)
	w := wire.NewWriter(bw)
	// The deadline is armed once the frame is encoded, just before its
	// bytes go to bufio (which writes a full buffer or a large frame
	// through to the socket): encoding time is not a stalled write.
	write := func(resp *wire.Response) error {
		frame, err := w.Encode(resp)
		if err != nil {
			return err
		}
		arm()
		_, err = bw.Write(frame)
		return err
	}
	broken := false
	for resp := range c.writeCh {
		if broken {
			continue
		}
		err := write(resp)
	burst:
		for err == nil {
			select {
			case more, ok := <-c.writeCh:
				if !ok {
					break burst // closed mid-burst: flush, then the range ends
				}
				err = write(more)
			default:
				break burst
			}
		}
		if err == nil {
			arm()
			err = bw.Flush()
		}
		if err != nil {
			broken = true
			c.nc.Close() // unblock readLoop too
		}
	}
}
