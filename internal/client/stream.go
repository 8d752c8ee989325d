package client

import (
	"errors"
	"fmt"

	"repro/internal/wire"
)

// Log subscription, subscriber side. SubscribeLog turns one Seq into an
// unbounded response stream: the demux routes every response carrying that
// Seq to the LogStream instead of completing a pending call, and Next hands
// chunks to the follower in arrival order. The rest of the connection keeps
// working — stats and reads pipeline alongside the feed — but a stream that
// is not consumed eventually blocks the demux (bounded tap), so a follower
// dedicates a connection to its subscription.

// LogStream is one replication feed. Not safe for concurrent Next calls.
type LogStream struct {
	c   *Client
	seq uint64
	ch  chan *wire.Response
}

// SubscribeLog requests the server's replication feed: a snapshot chunk,
// sealed-segment record chunks, a caught-up marker, then live record chunks
// until the connection dies. The server refuses it while draining, and on a
// follower (wire.ErrNotPrimary) — feeds come from the primary only.
func (c *Client) SubscribeLog() (*LogStream, error) {
	ch := make(chan *wire.Response, 16)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	c.nextSeq++
	seq := c.nextSeq
	if c.streams == nil {
		c.streams = make(map[uint64]chan *wire.Response)
	}
	c.streams[seq] = ch
	c.mu.Unlock()
	if err := c.writeFlush(&wire.Request{Op: wire.OpSubscribeLog, Seq: seq}); err != nil {
		c.mu.Lock()
		delete(c.streams, seq)
		c.mu.Unlock()
		return nil, err
	}
	return &LogStream{c: c, seq: seq, ch: ch}, nil
}

// Next blocks until the next chunk arrives. It returns the connection's
// sticky error once the transport dies, and a matchable remote error when
// the server ends the stream with a failure response (a lagged subscriber,
// a draining server). Chunks received before a failure are delivered first.
func (s *LogStream) Next() (*wire.LogChunk, error) {
	select {
	case resp := <-s.ch:
		return chunkOf(resp)
	case <-s.c.done:
	}
	// The connection failed; drain what the demux delivered before dying.
	select {
	case resp := <-s.ch:
		return chunkOf(resp)
	default:
	}
	s.c.mu.Lock()
	err := s.c.err
	s.c.mu.Unlock()
	if err == nil {
		err = errors.New("client: connection closed")
	}
	return nil, err
}

func chunkOf(resp *wire.Response) (*wire.LogChunk, error) {
	if resp.Err != "" {
		return nil, remoteError(resp)
	}
	if resp.Log == nil {
		return nil, fmt.Errorf("%w: stream response without log chunk", ErrRemote)
	}
	return resp.Log, nil
}

// Close detaches the stream from the demux. The server keeps publishing
// until the connection closes, so Close on a live connection is for tests;
// a follower ends a subscription by closing the client.
func (s *LogStream) Close() {
	s.c.mu.Lock()
	delete(s.c.streams, s.seq)
	s.c.mu.Unlock()
}
