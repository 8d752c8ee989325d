package storage

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
)

// Log shipping (replication publisher side): a Subscription is a consistent
// view of everything the store has ever committed, cut at a segment
// boundary, plus a live tap on every record appended after the cut.
//
// The shipping unit mirrors recovery exactly:
//
//	snapshot payload            state up to firstSeg
//	segments [firstSeg, cut)    sealed, immutable, read from disk at leisure
//	live tap records            appended at or above cut, pushed in order
//
// Subscribe rotates the tail so the cut is a seal boundary: every record
// staged before the subscription lives in a sealed segment below the cut,
// and every record appended after it reaches the tap. No record is in both.
//
// While a subscription bootstraps (reads its sealed segments), those
// segments are pinned: DeleteBefore keeps everything at or above the lowest
// subscriber's retention floor, so a concurrent compaction cannot delete a
// segment out from under a reader. EndBootstrap drops the pin.

// Subscription errors.
var (
	// ErrSubscriberLagged: the subscriber consumed the tap slower than the
	// log grew and the bounded buffer overflowed. The stream is broken —
	// the subscriber must resubscribe and bootstrap from a fresh snapshot.
	ErrSubscriberLagged = errors.New("storage: log subscriber lagged, resubscribe")
	// ErrSubscriberClosed: the subscription (or the WAL under it) closed.
	ErrSubscriberClosed = errors.New("storage: log subscription closed")
)

// subBufMax bounds one subscription's unconsumed live-tap bytes. A
// subscriber further behind than this has effectively stopped; buffering
// more would just defer the inevitable resubscribe at growing memory cost.
const subBufMax = 16 << 20

// Subscription is one subscriber's view of the log: the bootstrap material
// (snapshot + sealed segment range) captured at subscribe time, and the
// live record tap. Bootstrap fields are immutable after Subscribe; the tap
// buffer is fed under the WAL's lock and drained by Next.
type Subscription struct {
	w        *WAL
	dir      string
	snapshot []byte // snapshot payload at subscribe time (nil: none on disk)
	firstSeg uint64 // first segment the snapshot does not cover
	cut      uint64 // first live-tap segment; sealed range is [firstSeg, cut)

	mu       sync.Mutex
	buf      [][]byte // seed:guarded-by(mu) — pushed records awaiting Next
	bufBytes int      // seed:guarded-by(mu)
	lagged   bool     // seed:guarded-by(mu) — buffer overflowed, stream broken
	closed   bool     // seed:guarded-by(mu)

	ready chan struct{} // 1-buffered wake signal for Next
}

// Subscribe captures a consistent replication view: the current snapshot,
// the sealed segments it does not cover, and a live tap for everything
// after. Like Compact, the caller must serialize Subscribe against its own
// Append/AppendAsync calls (seed.Database holds its mutex across the call) so
// the cut point is exact: a record staged concurrently could otherwise
// land on either side of the rotation without being in the snapshot.
func (s *Store) Subscribe() (*Subscription, error) {
	payload, firstSeg, err := readSnapshot(filepath.Join(s.dir, SnapshotFile))
	if err != nil {
		return nil, err
	}
	sub := &Subscription{
		w:        s.wal,
		dir:      s.dir,
		snapshot: payload,
		firstSeg: firstSeg,
		ready:    make(chan struct{}, 1),
	}
	cut, err := s.wal.subscribe(sub, firstSeg)
	if err != nil {
		return nil, err
	}
	sub.cut = cut
	return sub, nil
}

// Snapshot returns the snapshot payload captured at subscribe time (nil
// when the store had none — replay then starts at segment 1) and the first
// segment it does not cover.
func (s *Subscription) Snapshot() ([]byte, uint64) { return s.snapshot, s.firstSeg }

// SealedSegments returns the sealed segment indexes the snapshot does not
// cover, in replay order. They are pinned against compaction until
// EndBootstrap.
func (s *Subscription) SealedSegments() []uint64 {
	segs := make([]uint64, 0, s.cut-s.firstSeg)
	for n := s.firstSeg; n < s.cut; n++ {
		segs = append(segs, n)
	}
	return segs
}

// ReadSegment streams every record of sealed segment n to fn in order. The
// payload slice passed to fn is reused between calls — fn must copy what
// it keeps. Only segments from SealedSegments are valid: they are immutable
// and pinned, so reading needs no lock.
func (s *Subscription) ReadSegment(n uint64, fn func(payload []byte) error) error {
	if n < s.firstSeg || n >= s.cut {
		return fmt.Errorf("storage: segment %d outside subscription range [%d,%d)", n, s.firstSeg, s.cut)
	}
	_, sealed, err := replaySegment(s.dir, n, fn)
	if err != nil {
		return err
	}
	if !sealed {
		return fmt.Errorf("%w: subscribed segment %d not sealed", ErrCorrupt, n)
	}
	return nil
}

// EndBootstrap releases the subscription's pin on its sealed segments:
// the subscriber has read them, so compaction may delete them again.
func (s *Subscription) EndBootstrap() {
	s.w.endBootstrap(s)
}

// Next blocks until live-tap records are available and returns them in
// append order, transferring ownership to the caller. It returns
// ErrSubscriberLagged when the tap buffer overflowed (the stream is broken;
// resubscribe), and ErrSubscriberClosed when the subscription or the WAL
// closed, or stop was closed. Buffered records are drained before a close
// is reported, so a graceful WAL close loses nothing that was pushed.
func (s *Subscription) Next(stop <-chan struct{}) ([][]byte, error) {
	for {
		s.mu.Lock()
		switch {
		case s.lagged:
			s.mu.Unlock()
			return nil, ErrSubscriberLagged
		case len(s.buf) > 0:
			recs := s.buf
			s.buf = nil
			s.bufBytes = 0
			s.mu.Unlock()
			return recs, nil
		case s.closed:
			s.mu.Unlock()
			return nil, ErrSubscriberClosed
		}
		s.mu.Unlock()
		select {
		case <-s.ready:
		case <-stop:
			return nil, ErrSubscriberClosed
		}
	}
}

// Close detaches the subscription from the WAL, dropping its retention pin
// and its tap. Idempotent.
func (s *Subscription) Close() {
	s.w.unsubscribe(s)
}

// push appends one record (already copied; subscribers share the copy) to
// the tap buffer, or breaks the stream if the buffer is over budget. Called
// under w.mu, so records arrive in append order.
func (s *Subscription) push(rec []byte) {
	s.mu.Lock()
	if !s.closed && !s.lagged {
		if s.bufBytes+len(rec) > subBufMax {
			s.lagged = true
			s.buf = nil
			s.bufBytes = 0
		} else {
			s.buf = append(s.buf, rec)
			s.bufBytes += len(rec)
		}
	}
	s.mu.Unlock()
	s.wake()
}

// markClosed flags the subscription closed and wakes Next. Buffered
// records remain readable.
func (s *Subscription) markClosed() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.wake()
}

func (s *Subscription) wake() {
	select {
	case s.ready <- struct{}{}:
	default:
	}
}

// noRetention is the retention floor of a subscription past bootstrap: it
// pins nothing.
const noRetention = ^uint64(0)

// subscribe rotates the tail (so the cut is a seal boundary), registers the
// subscription's tap with its retention floor, and returns the cut: the new
// tail's index, the first segment the tap observes. Staged group-commit
// batches are drained first so they fall below the cut.
func (w *WAL) subscribe(sub *Subscription, floor uint64) (uint64, error) {
	w.flushBatch()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrLogClosed
	}
	if err := w.rotateLocked(); err != nil {
		return 0, err
	}
	if w.subs == nil {
		w.subs = make(map[*Subscription]uint64)
	}
	w.subs[sub] = floor
	return w.tail.index, nil
}

// endBootstrap drops sub's retention floor; its sealed segments may be
// compacted away again.
func (w *WAL) endBootstrap(sub *Subscription) {
	w.mu.Lock()
	if _, ok := w.subs[sub]; ok {
		w.subs[sub] = noRetention
	}
	w.mu.Unlock()
}

// unsubscribe detaches sub from the WAL and closes it.
func (w *WAL) unsubscribe(sub *Subscription) {
	w.mu.Lock()
	delete(w.subs, sub)
	w.mu.Unlock()
	sub.markClosed()
}

// publishLocked hands one freshly appended record to every live tap. The
// record is copied once and shared: subscribers treat tap records as
// read-only. Lock order is w.mu then sub.mu (push), same as closeSubsLocked.
//
// seed:locked-caller
func (w *WAL) publishLocked(payload []byte) {
	rec := append([]byte(nil), payload...)
	for sub := range w.subs {
		sub.push(rec)
	}
}

// closeSubsLocked closes every subscription (WAL close or poison): their
// streams end after any still-buffered records.
//
// seed:locked-caller
func (w *WAL) closeSubsLocked() {
	for sub := range w.subs {
		sub.markClosed()
	}
	w.subs = nil
}

// retentionFloorLocked lowers index to the lowest segment any bootstrapping
// subscriber still needs, so DeleteBefore never deletes a pinned segment.
//
// seed:locked-caller
func (w *WAL) retentionFloorLocked(index uint64) uint64 {
	for _, floor := range w.subs {
		if floor < index {
			index = floor
		}
	}
	return index
}
