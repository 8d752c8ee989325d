package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Store combines a snapshot file with a segmented write-ahead log in one
// directory:
//
//	<dir>/snapshot.seed     full state at some point in time (optional)
//	<dir>/wal-000001.seed   numbered WAL segments appended since then
//	<dir>/wal-000002.seed   ...
//
// Recovery loads the snapshot (if present) and replays the segments it does
// not cover, in order. Compact is incremental: it seals the tail, writes
// the new snapshot, and deletes only sealed segments — the live tail is
// never rewritten or blocked.

// Snapshot file format: magic "SEEDSNP2", uint64 firstSeg (the first WAL
// segment NOT covered by the snapshot), uint32 length, uint32 CRC-32,
// payload. Any other header — including the retired "SEEDSNAP" one without
// firstSeg — is ErrCorrupt.
var snapMagic = [8]byte{'S', 'E', 'E', 'D', 'S', 'N', 'P', '2'}

// SnapshotFile is the snapshot file name within the store directory.
const SnapshotFile = "snapshot.seed"

// ErrNoStore reports a missing store directory.
var ErrNoStore = errors.New("storage: store directory does not exist")

// Store is a snapshot + segmented WAL in a directory.
type Store struct {
	dir  string
	opts Options
	wal  *WAL
}

// RecoveryHandler receives persisted state during Open: first the snapshot
// payload (if any), then every log record in order.
type RecoveryHandler interface {
	LoadSnapshot(payload []byte) error
	ApplyRecord(payload []byte) error
}

// Open opens (creating if necessary) the store in dir and replays persisted
// state through h. h may be nil when the caller knows the store is fresh.
func Open(dir string, h RecoveryHandler, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := removeStaleTemp(dir); err != nil {
		return nil, err
	}
	snapPath := filepath.Join(dir, SnapshotFile)
	payload, firstSeg, err := readSnapshot(snapPath)
	if err != nil {
		return nil, err
	}
	if payload != nil && h != nil {
		if err := h.LoadSnapshot(payload); err != nil {
			return nil, fmt.Errorf("storage: loading snapshot: %w", err)
		}
	}
	var apply func([]byte) error
	if h != nil {
		apply = h.ApplyRecord
	}
	wal, err := OpenWAL(dir, opts, firstSeg, apply)
	if err != nil {
		return nil, err
	}
	return &Store{dir: dir, opts: opts, wal: wal}, nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// Append writes one record to the WAL under the configured sync policy:
// buffered under SyncOnRequest, durable (group-committed) under
// SyncGroupCommit.
func (s *Store) Append(payload []byte) error {
	wait, err := s.AppendAsync(payload)
	if err == nil && wait != nil {
		err = wait()
	}
	return err
}

// AppendAsync writes one record under the configured sync policy, split
// for callers that fix the record's place in the log under their own lock
// and wait for durability after releasing it. Under SyncGroupCommit the
// record is staged in the current group-commit batch and the returned wait
// function blocks until it is durable, so concurrent committers coalesce
// into shared fsyncs. Under SyncOnRequest the record is buffered and the
// wait function is nil. A record over MaxRecord is refused with
// ErrOversize before anything is written.
func (s *Store) AppendAsync(payload []byte) (wait func() error, err error) {
	if s.opts.SyncPolicy == SyncGroupCommit {
		return s.wal.CommitAsync(payload), nil
	}
	return nil, s.wal.Append(payload)
}

// Sync makes all appended records durable.
func (s *Store) Sync() error { return s.wal.Sync() }

// Seal drains staged group-commit batches, seals the WAL's tail segment
// durably, and starts a fresh empty tail. Every record acknowledged before
// the call now lives in a sealed, immutable segment — the shape a graceful
// shutdown leaves behind, so recovery after a clean exit never has to
// reason about a torn tail.
func (s *Store) Seal() error {
	_, err := s.wal.Rotate()
	return err
}

// LogSize returns the current WAL size in bytes across all live segments.
func (s *Store) LogSize() int64 { return s.wal.Size() }

// Segments returns the number of live WAL segment files.
func (s *Store) Segments() int { return s.wal.SegmentCount() }

// Compact writes snapshot as the new full state and retires the WAL
// segments it covers. The tail is sealed first, so the snapshot's cut point
// is a segment boundary; the snapshot is written to a temporary file and
// renamed into place, so a crash during compaction leaves either the old or
// the new state intact; only sealed segments are deleted, so the live tail
// is never rewritten.
//
// The caller must serialize Compact against its own Append/AppendAsync calls:
// snapshot has to cover every record appended before Compact is invoked,
// because everything below the rotation cut point is deleted. A record
// committed between capturing the snapshot and calling Compact would be
// sealed below the cut and lost. (seed.Database holds its mutex across
// both; direct Store users must do the same.)
func (s *Store) Compact(snapshot []byte) error {
	first, err := s.wal.Rotate()
	if err != nil {
		return err
	}
	tmp := filepath.Join(s.dir, SnapshotFile+".tmp")
	if err := writeSnapshot(tmp, snapshot, first); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, SnapshotFile)); err != nil {
		return err
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}
	// The snapshot now durably covers every sealed segment below first.
	return s.wal.DeleteBefore(first)
}

// Close flushes and closes the store.
func (s *Store) Close() error { return s.wal.Close() }

// removeStaleTemp deletes temporary files a crashed Compact left behind: the
// snapshot is written to SnapshotFile+".tmp" and renamed into place, so a
// crash (or write error) between the two strands the temporary forever —
// nothing else ever looks at it. Followers compact far more often during
// catch-up, which is what made the leak worth closing. Any *.tmp in the
// store directory is by construction mid-rename garbage.
func removeStaleTemp(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".tmp" {
			continue
		}
		if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func writeSnapshot(path string, payload []byte, firstSeg uint64) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	var header [24]byte
	copy(header[:8], snapMagic[:])
	binary.LittleEndian.PutUint64(header[8:16], firstSeg)
	binary.LittleEndian.PutUint32(header[16:20], uint32(len(payload)))
	binary.LittleEndian.PutUint32(header[20:24], crc32.ChecksumIEEE(payload))
	if _, err := f.Write(header[:]); err != nil {
		return err
	}
	if _, err := f.Write(payload); err != nil {
		return err
	}
	return f.Sync()
}

// readSnapshot returns the payload and the first WAL segment the snapshot
// does not cover. A missing file yields (nil, 1, nil).
func readSnapshot(path string) ([]byte, uint64, error) {
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, 1, nil
	}
	if err != nil {
		return nil, 0, err
	}
	if len(raw) < 24 || [8]byte(raw[:8]) != snapMagic {
		return nil, 0, fmt.Errorf("%w: snapshot header", ErrCorrupt)
	}
	firstSeg := binary.LittleEndian.Uint64(raw[8:16])
	if firstSeg < 1 {
		return nil, 0, fmt.Errorf("%w: snapshot first segment %d", ErrCorrupt, firstSeg)
	}
	length := binary.LittleEndian.Uint32(raw[16:20])
	crc := binary.LittleEndian.Uint32(raw[20:24])
	payload := raw[24:]
	if int(length) != len(payload) {
		return nil, 0, fmt.Errorf("%w: snapshot length %d vs %d", ErrCorrupt, length, len(payload))
	}
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, 0, fmt.Errorf("%w: snapshot checksum", ErrCorrupt)
	}
	return payload, firstSeg, nil
}
