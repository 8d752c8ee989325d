// Package storage implements the persistence substrate of SEED: a
// segmented append-only write-ahead log with per-record CRC-32 checksums,
// torn-write recovery and group-committed fsyncs, and a directory-level
// store that combines a snapshot with the log and supports incremental
// compaction (sealed segments are deleted; the live tail is never
// rewritten). Record payloads are written with internal/codec.
//
// The storage layer deals in opaque record payloads; the engine above it
// decides what a record means. This keeps recovery logic (checksums,
// truncated tails, seal markers, atomic snapshot replacement) independent
// of the data model.
package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Log errors.
var (
	ErrBadMagic  = errors.New("storage: bad log magic")
	ErrCorrupt   = errors.New("storage: corrupt record")
	ErrLogClosed = errors.New("storage: log closed")
	ErrOversize  = errors.New("storage: record exceeds size limit")
)

// WAL is a segmented, append-only write-ahead log: records append to
// numbered segment files (wal-000001.seed, ...) in one directory. The tail
// segment is sealed and a successor started once it crosses
// Options.SegmentSize; sealed segments are immutable, which lets compaction
// delete them without touching the live tail.
//
// Append buffers a record (durability on Sync, as before); Commit makes a
// record durable before returning, coalescing concurrent committers into
// one fsync per batch via the commit-pipeline goroutine.
type WAL struct {
	dir  string
	opts Options

	mu     sync.Mutex  // guards tail, sealed, closed file state
	tail   *segment    // seed:guarded-by(mu)
	sealed []sealedSeg // seed:guarded-by(mu)
	closed bool        // seed:guarded-by(mu)

	// subs are the live replication taps (see ship.go), mapped to the
	// lowest segment each still needs for bootstrap (noRetention once
	// done). Appends publish to every tap; DeleteBefore respects the
	// lowest floor.
	subs map[*Subscription]uint64 // seed:guarded-by(mu)

	batchMu  sync.Mutex // guards curBatch, accepting
	curBatch *batch     // seed:guarded-by(batchMu)
	stopping bool       // seed:guarded-by(batchMu)

	// flushMu serializes whole batch flushes (swap + append + fsync): a
	// drain (Sync, Rotate) must not observe an empty curBatch while the
	// pipeline goroutine still holds a swapped-out batch it has yet to
	// append — the batch would land after the drain's cut point.
	flushMu sync.Mutex

	kick chan struct{}
	quit chan struct{}
	wg   sync.WaitGroup
}

// sealedSeg is a sealed, immutable segment awaiting compaction.
type sealedSeg struct {
	index uint64
	size  int64
}

// batch is one group-commit unit: every payload in it becomes durable with
// a single fsync, and all committers block on the shared done channel.
type batch struct {
	payloads [][]byte
	err      error
	done     chan struct{}
}

// OpenWAL opens (creating if necessary) the segmented log in dir, replaying
// every intact record through fn in order. Segments below firstSeg are
// leftovers of an interrupted compaction and are deleted unread. A torn
// tail is truncated — but only on the last segment; a non-last segment that
// does not end in a seal marker, or a sealed last segment (its successor is
// missing), surfaces ErrCorrupt. One exception heals instead of erroring:
// an unsealed second-to-last segment whose successor is empty is the
// fingerprint of a crash mid-rotation, and recovery resumes it as the tail.
func OpenWAL(dir string, opts Options, firstSeg uint64, fn func(payload []byte) error) (*WAL, error) {
	opts = opts.withDefaults()
	if firstSeg < 1 {
		firstSeg = 1
	}
	// The single-file log that predates segments is no longer read. Opening
	// past one would silently drop the database's whole history, so refuse.
	stale := filepath.Join(dir, "wal.seed")
	if _, err := os.Stat(stale); err == nil {
		return nil, fmt.Errorf("%w: %s is a pre-segmented log this version cannot read", ErrBadMagic, stale)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	live := segs[:0]
	for _, n := range segs {
		if n < firstSeg {
			// Pre-compaction leftover: its records live in the snapshot.
			if err := os.Remove(filepath.Join(dir, SegmentFile(n))); err != nil {
				return nil, err
			}
			continue
		}
		live = append(live, n)
	}

	w := &WAL{
		dir:  dir,
		opts: opts,
		kick: make(chan struct{}, 1),
		quit: make(chan struct{}),
	}
	if len(live) == 0 {
		if firstSeg > 1 {
			// A compacted store always keeps its live tail segment.
			return nil, fmt.Errorf("%w: WAL segment %d missing", ErrCorrupt, firstSeg)
		}
		seg, err := createSegment(dir, 1)
		if err != nil {
			return nil, err
		}
		w.tail = seg
	} else {
		if live[0] != firstSeg {
			return nil, fmt.Errorf("%w: WAL starts at segment %d, snapshot expects %d",
				ErrCorrupt, live[0], firstSeg)
		}
		if len(live) == 1 && tornSegmentHeader(dir, live[0]) {
			// The sole live segment's header never fully reached disk (a
			// crash during its creation): no record was ever acked into
			// it, so recreate it instead of refusing to open.
			seg, err := createSegment(dir, live[0])
			if err != nil {
				return nil, err
			}
			w.tail = seg
			live = live[:0] // nothing to replay
		}
	replay:
		for i, n := range live {
			if i > 0 && n != live[i-1]+1 {
				return nil, fmt.Errorf("%w: WAL segment %d missing", ErrCorrupt, live[i-1]+1)
			}
			good, sealed, err := replaySegment(dir, n, fn)
			if err != nil {
				return nil, err
			}
			last := i == len(live)-1
			switch {
			case !last && !sealed:
				// An unsealed segment with successors normally means acked
				// records were lost — except for the one shape a crash
				// during rotation leaves behind: this is the second-to-last
				// segment and the successor is empty (created durably
				// before the seal reached disk). Nothing past the torn
				// point was ever acked, so heal: drop the empty successor
				// and resume this segment as the tail.
				if i == len(live)-2 && emptySuccessor(dir, live[i+1]) {
					if err := os.Remove(filepath.Join(dir, SegmentFile(live[i+1]))); err != nil {
						return nil, err
					}
					if err := syncDir(dir); err != nil {
						return nil, err
					}
					tail, err := openTailSegment(dir, n, good)
					if err != nil {
						return nil, err
					}
					w.tail = tail
					break replay
				}
				return nil, fmt.Errorf("%w: segment %d truncated (no seal marker)", ErrCorrupt, n)
			case last && sealed:
				return nil, fmt.Errorf("%w: final WAL segment %d missing", ErrCorrupt, n+1)
			case last:
				tail, err := openTailSegment(dir, n, good)
				if err != nil {
					return nil, err
				}
				w.tail = tail
			default:
				w.sealed = append(w.sealed, sealedSeg{index: n, size: good})
			}
		}
	}
	w.wg.Add(1)
	go w.pipeline()
	return w, nil
}

// tornSegmentHeader reports whether a segment file is shorter than its
// header — a crash during creation, before the header reached disk.
func tornSegmentHeader(dir string, n uint64) bool {
	info, err := os.Stat(filepath.Join(dir, SegmentFile(n)))
	return err == nil && info.Size() < segHeaderSize
}

// emptySuccessor reports whether segment n holds no records — either a
// pristine header (crash after the header fsync) or fewer bytes than a
// header (crash before it): both are benign leftovers of an interrupted
// rotation. A successor with a full header and anything unexpected after
// it is not.
func emptySuccessor(dir string, n uint64) bool {
	if tornSegmentHeader(dir, n) {
		return true
	}
	good, sealed, err := replaySegment(dir, n, nil)
	return err == nil && !sealed && good == segHeaderSize
}

// Append buffers one record at the tail, rotating to a new segment when the
// size cap is crossed. Call Sync for durability, or use Commit.
func (w *WAL) Append(payload []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appendLocked(payload)
}

// appendLocked stages one record at the tail.
//
// seed:locked-caller
func (w *WAL) appendLocked(payload []byte) error {
	if w.closed {
		return ErrLogClosed
	}
	if len(payload) > MaxRecord {
		return fmt.Errorf("%w: record of %d bytes", ErrOversize, len(payload))
	}
	if err := w.tail.append(payload); err != nil {
		w.poisonLocked() // buffer state unknown after an I/O failure
		return err
	}
	if len(w.subs) > 0 {
		w.publishLocked(payload)
	}
	if w.tail.size >= w.opts.SegmentSize {
		if err := w.rotateLocked(); err != nil && !w.closed {
			// Rotation could not start a successor (transient ENOSPC or
			// the like) but the tail is intact and the record is safely
			// buffered: the segment cap is soft, so report the append as
			// the success it is and retry rotation on the next one.
			return nil
		} else if err != nil {
			return err // poisoned mid-seal
		}
	}
	return nil
}

// rotateLocked creates the successor segment, then seals the tail durably.
// The seal marker promises the successor exists, so recovery can detect a
// missing final segment. A crash between the two fsyncs leaves the exact
// shape [unsealed tail, empty successor], which OpenWAL heals (see
// DESIGN.md). A createSegment failure leaves the tail untouched and the
// WAL fully usable (callers may retry); a seal failure poisons the log —
// the marker may be half-buffered, and more appends could put records
// after a seal.
//
// seed:locked-caller
func (w *WAL) rotateLocked() error {
	next, err := createSegment(w.dir, w.tail.index+1)
	if err != nil {
		return err
	}
	if err := w.tail.seal(); err != nil {
		// The marker may or may not have reached the file; appending more
		// records could put data after a seal. Poison the log.
		w.poisonLocked()
		next.f.Close()
		os.Remove(next.path)
		return err
	}
	old := w.tail
	w.sealed = append(w.sealed, sealedSeg{index: old.index, size: old.size})
	w.tail = next
	return old.f.Close()
}

// Commit appends one record and blocks until it is durable. Concurrent
// commits are coalesced: the pipeline goroutine writes the whole batch and
// fsyncs once, then releases every committer in the batch.
func (w *WAL) Commit(payload []byte) error { return w.CommitAsync(payload)() }

// CommitAsync stages one record in the current group-commit batch and
// returns a wait function that blocks until it is durable (or the shared
// fsync fails). Staging and waiting are split so a caller can stage under
// its own mutex — fixing the record's position in the log relative to
// other committers — and pay the fsync latency after releasing it; that is
// how concurrent check-in commits coalesce into shared fsyncs without
// serializing on the database write lock.
func (w *WAL) CommitAsync(payload []byte) func() error {
	if len(payload) > MaxRecord {
		err := fmt.Errorf("%w: record of %d bytes", ErrOversize, len(payload))
		return func() error { return err }
	}
	w.batchMu.Lock()
	if w.stopping {
		w.batchMu.Unlock()
		return func() error { return ErrLogClosed }
	}
	b := w.curBatch
	if b == nil {
		b = &batch{done: make(chan struct{})}
		w.curBatch = b
		select {
		case w.kick <- struct{}{}:
		default:
		}
	}
	b.payloads = append(b.payloads, payload)
	w.batchMu.Unlock()

	return func() error {
		<-b.done
		return b.err
	}
}

// pipeline is the group-commit goroutine: it swaps out the current batch,
// writes and fsyncs it as one unit, and broadcasts the result on the
// batch's done channel. While one batch fsyncs, new committers accumulate
// into the next.
func (w *WAL) pipeline() {
	defer w.wg.Done()
	for {
		select {
		case <-w.kick:
			w.flushBatch()
		case <-w.quit:
			w.flushBatch() // drain committers that raced with Close
			return
		}
	}
}

func (w *WAL) flushBatch() {
	w.flushMu.Lock()
	defer w.flushMu.Unlock()
	w.batchMu.Lock()
	b := w.curBatch
	w.curBatch = nil
	w.batchMu.Unlock()
	if b == nil {
		return
	}
	w.mu.Lock()
	var err error
	for _, p := range b.payloads {
		if err = w.appendLocked(p); err != nil {
			break
		}
	}
	if err == nil {
		err = w.syncLocked()
	}
	w.mu.Unlock()
	b.err = err
	close(b.done)
}

// Sync flushes buffered records and fsyncs the tail segment (sealed
// segments are already durable). Records staged by CommitAsync but not
// yet picked up by the pipeline are drained first, so Sync's durability
// promise covers everything staged before the call.
func (w *WAL) Sync() error {
	w.flushBatch()
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncLocked()
}

// syncLocked fsyncs the tail segment.
//
// seed:locked-caller
func (w *WAL) syncLocked() error {
	if w.closed {
		return ErrLogClosed
	}
	if err := w.tail.sync(); err != nil {
		w.poisonLocked()
		return err
	}
	return nil
}

// poisonLocked makes the WAL unusable after a failed write or fsync. The
// failed bytes may sit in buffers that a LATER successful fsync would
// flush, turning an error-acked record durable behind the caller's back —
// refusing all further work keeps the error acknowledgement trustworthy.
//
// seed:locked-caller
func (w *WAL) poisonLocked() {
	w.closed = true
	w.closeSubsLocked()
	w.tail.f.Close()
}

// Rotate seals the tail and starts a fresh segment, returning the new tail
// index. Every record appended or staged so far now lives in a sealed
// segment below the returned index — the compaction cut point. Staged
// group-commit batches are drained first: a record staged before Rotate
// must fall below the cut, or the snapshot that motivated the rotation
// would not cover it and replay would apply it twice.
func (w *WAL) Rotate() (uint64, error) {
	w.flushBatch()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrLogClosed
	}
	if err := w.rotateLocked(); err != nil {
		return 0, err
	}
	return w.tail.index, nil
}

// DeleteBefore removes sealed segments below index (their records are
// covered by a durable snapshot). The live tail is never touched, and
// segments a bootstrapping subscriber still needs are kept (they fall to
// the next compaction once the subscriber finishes). The call is
// idempotent: already-deleted files are fine, and a partial failure leaves
// the remaining entries in place for the next attempt.
func (w *WAL) DeleteBefore(index uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	index = w.retentionFloorLocked(index)
	var firstErr error
	keep := w.sealed[:0]
	for _, s := range w.sealed {
		if s.index >= index {
			keep = append(keep, s)
			continue
		}
		err := os.Remove(filepath.Join(w.dir, SegmentFile(s.index)))
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			keep = append(keep, s) // retry on the next compaction
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	w.sealed = keep
	return firstErr
}

// Size returns the logical size of the log in bytes across all live
// segments (including buffered, not-yet-flushed records).
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	size := w.tail.size
	for _, s := range w.sealed {
		size += s.size
	}
	return size
}

// SegmentCount returns the number of live segment files (sealed + tail).
func (w *WAL) SegmentCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.sealed) + 1
}

// Close stops the commit pipeline, flushes, fsyncs and closes the tail.
func (w *WAL) Close() error {
	w.batchMu.Lock()
	if w.stopping {
		w.batchMu.Unlock()
		return nil
	}
	w.stopping = true
	close(w.quit)
	w.batchMu.Unlock()
	w.wg.Wait()

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	w.closeSubsLocked()
	if err := w.tail.sync(); err != nil {
		w.tail.f.Close()
		return err
	}
	return w.tail.f.Close()
}
