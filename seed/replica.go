package seed

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"time"

	"repro/internal/storage"
	"repro/internal/version"
)

// Follower replication (DESIGN.md section 13). The primary side is
// SubscribeLog: a consistent cut of everything committed (snapshot + sealed
// WAL segments) plus a live tap of every record appended after. The
// follower side is a Database built by NewFollower that applies the stream
// through the same recovery dispatch a crash restart uses — snapshot, then
// records in order, each committed write set one record that applies whole
// or not at all — and
// serves the entire read surface from its own COW generations. Mutations on
// a follower are refused with ErrNotPrimary at every entry point.

// Replication errors.
var (
	// ErrNotPrimary rejects mutations (and primary-only operations)
	// addressed to a read-only follower. Retryable against the primary:
	// nothing about the request was wrong, it reached the wrong process.
	ErrNotPrimary = errors.New("seed: read-only follower, mutate on the primary")
	// ErrNotReplica rejects replication-apply calls on a primary database.
	ErrNotReplica = errors.New("seed: not a follower database")
	// ErrNoLog rejects SubscribeLog on an in-memory database: with no
	// write-ahead log there is nothing to ship.
	ErrNoLog = errors.New("seed: in-memory database has no log to subscribe to")
)

// SubscribeLog opens a replication subscription on a file-backed primary:
// the returned subscription carries the snapshot and sealed segments for
// bootstrap and taps every record committed after the cut. The returned
// generation is the primary's mutation generation at the cut — the
// generation a follower is at once it has applied the whole bootstrap. The
// caller owns the subscription and must Close it.
func (db *Database) SubscribeLog() (*storage.Subscription, uint64, error) {
	// The write lock serializes the cut against every journaled mutation
	// and against Compact, so the (snapshot, segments, tap) triple and the
	// generation stamp describe exactly one point in commit order.
	db.mu.Lock()
	defer db.mu.Unlock()
	switch {
	case db.closed:
		return nil, 0, ErrClosed
	case db.replica:
		// No chaining: a follower's log is not the primary's log.
		return nil, 0, ErrNotPrimary
	case db.store == nil:
		return nil, 0, ErrNoLog
	}
	sub, err := db.store.Subscribe()
	if err != nil {
		return nil, 0, err
	}
	return sub, db.gen, nil
}

// NewFollower creates an empty in-memory follower database. It has no
// engine or schema until the replication stream delivers them
// (ApplyLogSnapshot, ApplyLogRecords, or adopting a bootstrapped staging
// follower via ReplicaAdopt); reads are meaningful only after the first
// complete bootstrap, which the serving layer gates on. Mutations are
// refused with ErrNotPrimary for the follower's whole life. Each shipped
// write set is one record that applies as one engine transaction, and a
// refused one changes nothing; the follower journals nothing.
func NewFollower() *Database {
	db := &Database{replica: true, clock: time.Now}
	db.vers = version.NewManager()
	return db
}

// Replica reports whether the database is a read-only follower. The flag
// is immutable after construction.
func (db *Database) Replica() bool { return db.replica }

// Generation returns the mutation generation: bumped once per visible
// change on a primary, once per applied replication step on a follower.
// Generations are process-local coordinates — the serving layer reports a
// follower's position in primary generations separately.
func (db *Database) Generation() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.gen
}

// ApplyLogSnapshot resets the follower to a bootstrap snapshot payload. A
// nil payload means the primary had no snapshot on disk: the follower
// resets to empty and the record stream rebuilds everything (its first
// record is the primary's initial schema record). The follower holds
// nothing between records, so the stream starts over from this base.
func (db *Database) ApplyLogSnapshot(payload []byte) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.guardReplicaApply(); err != nil {
		return err
	}
	if payload == nil {
		db.engine = nil
		db.schemas = nil
		db.vers = version.NewManager()
	} else if err := db.loadSnapshot(payload); err != nil {
		return err
	}
	db.pins.drop(nil)
	db.gen++
	return nil
}

// ApplyLogRecords applies a run of shipped WAL records in log order through
// the recovery dispatch: a batch record (one committed write set) applies
// as one engine transaction, and schema and version records evolve their
// planes. A record is never split across calls or stream chunks, so each
// call applies whole records. A batch with a bad inner record is refused
// whole, and the records after it are not applied. Readers pinned to
// earlier generations are unaffected; the generation bump publishes what
// applied to new reads.
func (db *Database) ApplyLogRecords(records [][]byte) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.guardReplicaApply(); err != nil {
		return err
	}
	db.gen++ // under the write lock, so no read sees the records half-applied
	for _, rec := range records {
		if err := db.applyRecord(rec); err != nil {
			return err
		}
	}
	return nil
}

// ReplicaAdopt transplants the state of a fully bootstrapped staging
// follower into db in one step. This is how a follower resyncs without
// going dark: the stream (re)bootstrap applies into a fresh staging
// follower while db keeps serving its last consistent state, and the
// caught-up marker swaps the staging state in atomically. staging is
// consumed: it is marked closed and must not be used afterwards.
func (db *Database) ReplicaAdopt(staging *Database) error {
	if staging == db {
		return errors.New("seed: follower cannot adopt itself")
	}
	// staging is private to the caller (nothing else holds a reference), so
	// taking its lock inside ours cannot deadlock.
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.guardReplicaApply(); err != nil {
		return err
	}
	staging.mu.Lock()
	en, schemas, vers := staging.engine, staging.schemas, staging.vers
	ok := staging.replica && !staging.closed && en != nil
	staging.closed = true
	staging.mu.Unlock()
	if !ok {
		return errors.New("seed: adopt source is not a bootstrapped follower")
	}
	// Attribute indexes are engine-local acceleration state: carry the
	// serving follower's registrations across the engine swap so a resync
	// does not silently drop them. A spec whose class vanished from the
	// adopted schema is dropped — the error is the registration's, not the
	// resync's.
	var specs []AttrSpec
	if db.engine != nil {
		specs = db.engine.AttrIndexes()
	}
	db.engine = en
	db.schemas = schemas
	db.vers = vers
	for _, spec := range specs {
		_ = db.engine.CreateAttrIndex(spec)
	}
	db.pins.drop(nil)
	db.gen++
	return nil
}

// guardReplicaApply admits replication-apply calls: follower only, open
// only.
//
// seed:locked-caller
func (db *Database) guardReplicaApply() error {
	if !db.replica {
		return ErrNotReplica
	}
	if db.closed {
		return ErrClosed
	}
	return nil
}

// StateDigest returns a collision-resistant digest of the complete logical
// state: items (deleted included), ID high-water mark, schema versions,
// dirty marks, and the version tree — everything a snapshot serializes,
// hashed. Two databases that applied the same committed history digest
// identically, which is the replica-vs-primary differential the replication
// tests gate on. A follower before its first bootstrap
// digests as "empty".
func (db *Database) StateDigest() (string, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.engine == nil {
		return "empty", nil
	}
	payload, err := db.encodeSnapshot()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:]), nil
}
