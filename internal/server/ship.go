package server

import (
	"errors"

	"repro/internal/storage"
	"repro/internal/wire"
)

// Log shipping, publisher side (DESIGN.md section 13). One subscribe-log
// request turns its connection's response stream into a replication feed:
// a snapshot chunk, the sealed segments the snapshot does not cover
// (chunked), a caught-up marker, then live chunks — one per group-commit
// drain — until the connection dies, the server stops, or the subscriber
// lags its bounded tap buffer. The publisher runs as one goroutine per
// subscription and funnels through the connection's serialized writer like
// every other response, so a follower can keep issuing requests (stats,
// reads) on the same connection while the feed flows.

// logChunkBytes is the raw-payload budget of one records chunk. JSON
// base64-expands payloads by ~4/3, so this stays comfortably under the
// 8 MiB wire frame limit while amortizing framing over many records.
const logChunkBytes = 512 << 10

// errPublisherDone aborts a segment read because the subscriber is gone.
var errPublisherDone = errors.New("server: publisher done")

// SetFollower marks the server as fronting a read-only follower database:
// mutating ops are refused with the retryable not-primary code and stats
// report replication position. Call before Listen.
func (s *Server) SetFollower(on bool) { s.follower = on }

// SetReplicaStatus installs the replication-position probe OpStats reports
// for a follower: applied primary generation, last observed primary head
// generation, and applied record count. Call before Listen.
func (s *Server) SetReplicaStatus(fn func() (appliedGen, headGen, applied uint64)) {
	s.replicaStatus = fn
}

// handleSubscribeLog opens the database's log subscription under the commit
// lock (the consistent cut) and hands the stream to a publisher goroutine
// registered in the connection's handler group. It answers only a failure:
// on success the stream owns the request's Seq from here on.
func (s *Server) handleSubscribeLog(c *conn, req *wire.Request) *wire.Response {
	sub, cutGen, err := s.db.SubscribeLog()
	if err != nil {
		return fail(err)
	}
	c.handlers.Add(1)
	go func() {
		defer c.handlers.Done()
		defer sub.Close()
		s.publish(c, req.Seq, sub, cutGen)
	}()
	return nil
}

// publish streams one subscription to one connection. Every send gives up
// when the connection's reader has exited or the server stops (conn.send) —
// the write channel closes after the handler group drains, so blocking on
// it unconditionally would deadlock teardown. Terminal subscription errors
// (lagged, closed) are reported as a final error response: the follower
// resubscribes and bootstraps again.
func (s *Server) publish(c *conn, seq uint64, sub *storage.Subscription, cutGen uint64) {
	sendErr := func(err error) {
		resp := fail(err)
		resp.Seq = seq
		c.send(resp)
	}

	// Bootstrap: the snapshot establishes the base state (nil means the
	// primary never compacted — the record stream rebuilds from genesis).
	snap, _ := sub.Snapshot()
	if !c.send(&wire.Response{Seq: seq, Log: &wire.LogChunk{Kind: wire.LogSnapshot, Snapshot: snap, Gen: cutGen}}) {
		return
	}
	// Sealed segments in replay order, records batched into bounded chunks.
	// ReadSegment reuses its payload buffer, so each kept record is copied.
	for _, seg := range sub.SealedSegments() {
		var recs [][]byte
		var size int
		flush := func() bool {
			if len(recs) == 0 {
				return true
			}
			ok := c.send(&wire.Response{Seq: seq, Log: &wire.LogChunk{Kind: wire.LogRecords, Records: recs, Seg: seg, Gen: cutGen}})
			recs, size = nil, 0
			return ok
		}
		err := sub.ReadSegment(seg, func(payload []byte) error {
			rec := append([]byte(nil), payload...)
			recs = append(recs, rec)
			if size += len(rec); size >= logChunkBytes {
				if !flush() {
					return errPublisherDone
				}
			}
			return nil
		})
		switch {
		case errors.Is(err, errPublisherDone):
			return
		case err != nil:
			sendErr(err)
			return
		case !flush():
			return
		}
	}
	// Bootstrap shipped: drop the segment pin so compaction may reclaim,
	// and tell the follower it is current as of the cut.
	sub.EndBootstrap()
	if !c.send(&wire.Response{Seq: seq, Log: &wire.LogChunk{Kind: wire.LogCaughtUp, Gen: cutGen}}) {
		return
	}
	// Live tap: each Next returns one run of committed records in append
	// order. The generation stamp is the primary's current generation — a
	// head coordinate the follower uses to report lag, deliberately read
	// after the records it annotates so lag is never understated.
	for {
		recs, err := sub.Next(c.done)
		if err != nil {
			sendErr(err)
			return
		}
		if !c.send(&wire.Response{Seq: seq, Log: &wire.LogChunk{Kind: wire.LogRecords, Records: recs, Gen: s.db.Generation()}}) {
			return
		}
	}
}
