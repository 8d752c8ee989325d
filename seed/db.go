package seed

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/pattern"
	"repro/internal/schema"
	"repro/internal/sdl"
	"repro/internal/storage"
	"repro/internal/version"
)

// Database errors.
var (
	ErrNoSchema        = errors.New("seed: opening a fresh database requires a schema")
	ErrClosed          = errors.New("seed: database is closed")
	ErrUnsavedChanges  = errors.New("seed: current state has unsaved changes; save a version first")
	ErrInheritedData   = pattern.ErrInheritedData
	ErrBadSchemaChange = errors.New("seed: schema evolution invalidates existing data")
	// ErrTxOpen rejects whole-database operations (version save/select,
	// schema evolution, compaction) while a transaction is open: they
	// would freeze or persist a half-applied batch. The server takes a
	// whole-database barrier around these operations so clients never see
	// this error.
	ErrTxOpen = errors.New("seed: operation not allowed while a transaction is open")
	// ErrTxConflict reports that two concurrently staged transactions
	// overlap (or that a commit landed under an open transaction's feet).
	// It is retryable: roll back, re-read, and re-stage. The server's
	// check-out locks keep disjoint check-ins conflict-free; this surfaces
	// only for genuinely overlapping write sets.
	ErrTxConflict = core.ErrTxConflict
	// ErrTxDone rejects operations on a transaction handle that was
	// already committed or rolled back.
	ErrTxDone = errors.New("seed: transaction already committed or rolled back")
)

// SyncPolicy selects when journaled operations become durable; see the
// storage package.
type SyncPolicy = storage.SyncPolicy

// Sync policies for Options.SyncPolicy.
const (
	// SyncOnRequest defers fsync to Sync, SaveVersion, Compact and Close
	// (the default).
	SyncOnRequest = storage.SyncOnRequest
	// SyncGroupCommit makes every journaled operation durable before it
	// returns. A Tx commit waits for its fsync after releasing the write
	// lock, so concurrent commits coalesce into shared fsyncs; a
	// one-operation write waits under the lock, because a failed append
	// must roll it back before anyone else observes it.
	SyncGroupCommit = storage.SyncGroupCommit
)

// Options configure a database.
type Options struct {
	// Schema is required when the directory is fresh (or for NewMemory).
	Schema *Schema
	// SyncPolicy selects when journal records become durable.
	SyncPolicy SyncPolicy
	// SegmentSize caps one write-ahead-log segment file in bytes before the
	// log rotates to the next numbered segment (0 selects the storage
	// default, 4 MiB).
	SegmentSize int64
	// CompactAfter triggers automatic snapshot compaction when the
	// write-ahead log exceeds this many bytes across all segments
	// (0 disables).
	CompactAfter int64
	// Clock supplies timestamps (defaults to time.Now; tests and
	// benchmarks inject fixed clocks for determinism).
	Clock func() time.Time
}

// Database is a SEED database: the current state, the version tree, and —
// when file-backed — a write-ahead log plus snapshot in one directory.
// Methods are safe for use from multiple goroutines: mutations serialize on
// a write lock, retrieval runs in parallel on a read lock, and View/RawView
// return immutable snapshots that stay consistent while mutations proceed.
// Each of the Database's own mutators runs as a one-operation transaction:
// accepted, it is journaled and visible on return; refused, or if its
// journal append fails, the state is unchanged. A batch is a Tx from
// BeginTx. Several may be staged concurrently — each Tx carries its own
// batch, and transactions with disjoint write sets commit independently
// (overlaps surface as ErrTxConflict); the server maps check-out lock sets
// onto transactions (DESIGN.md section 8).
type Database struct {
	// mu guards the mutable database state below. The seed:guarded-by
	// annotations are enforced at compile time by the guardedby analyzer
	// (internal/lint, `seedlint ./...`): reads require at least RLock,
	// writes require Lock, both on this Database's own mu. Helpers that
	// run with the lock already held carry a seed:locked-caller marker.
	mu sync.RWMutex

	schemas []*schema.Schema // seed:guarded-by(mu) — index = version-1
	engine  *core.Engine     // seed:guarded-by(mu)
	vers    *version.Manager // seed:guarded-by(mu)
	store   *storage.Store   // immutable after Open; internally synchronized
	opts    Options          // immutable after Open
	clock   func() time.Time // immutable after Open

	snapMu sync.Mutex                    // serializes snapshot builds
	snap   atomic.Pointer[snapshotCache] // snapshot of the last built generation
	gen    uint64                        // seed:guarded-by(mu) — mutation generation (bumped per visible change)
	pins   versionPins                   // saved versions' frozen generations (versions.go); internally synchronized

	// Follower replication (replica.go). replica marks a read-only
	// follower — every mutation entry point refuses with ErrNotPrimary.
	replica bool // immutable after construction

	transitions map[string]TransitionRule // seed:guarded-by(mu) — history-sensitive consistency rules

	closed bool // seed:guarded-by(mu)
}

// NewMemory creates an ephemeral database over a frozen schema.
func NewMemory(sch *Schema) (*Database, error) {
	return newDatabase(nil, Options{Schema: sch})
}

// Open opens (or creates) a file-backed database in dir. A fresh directory
// requires Options.Schema; an existing database loads its schema versions
// from storage and ignores Options.Schema.
func Open(dir string, opts Options) (*Database, error) {
	db := &Database{opts: opts, clock: opts.Clock}
	if db.clock == nil {
		db.clock = time.Now
	}
	db.vers = version.NewManager()
	st, err := storage.Open(dir, recovery{db}, storage.Options{SegmentSize: opts.SegmentSize, SyncPolicy: opts.SyncPolicy})
	if err != nil {
		return nil, err
	}
	db.store = st
	if db.engine == nil {
		// Fresh database: no snapshot, no schema record replayed.
		if opts.Schema == nil {
			st.Close()
			return nil, ErrNoSchema
		}
		if err := db.initFresh(opts.Schema); err != nil {
			st.Close()
			return nil, err
		}
	}
	db.engine.SetJournal(db.journalOneOp)
	return db, nil
}

func newDatabase(store *storage.Store, opts Options) (*Database, error) {
	if opts.Schema == nil {
		return nil, ErrNoSchema
	}
	db := &Database{opts: opts, store: store, clock: opts.Clock}
	if db.clock == nil {
		db.clock = time.Now
	}
	db.vers = version.NewManager()
	if err := db.initFresh(opts.Schema); err != nil {
		return nil, err
	}
	if store != nil {
		db.engine.SetJournal(db.journalOneOp)
	}
	return db, nil
}

// initFresh installs the initial schema and engine, journaling the schema
// when file-backed.
//
// seed:locked-caller — runs from newDatabase before the *Database value is
// published, so no other goroutine can observe the fields it initializes.
func (db *Database) initFresh(sch *Schema) error {
	if !sch.Frozen() {
		return schema.ErrNotFrozen
	}
	if sch.Version() != 1 {
		return fmt.Errorf("seed: initial schema must have version 1, got %d", sch.Version())
	}
	en, err := core.NewEngine(sch)
	if err != nil {
		return err
	}
	db.schemas = []*schema.Schema{sch}
	db.engine = en
	if db.store != nil {
		if err := db.store.Append(encSchemaRecord(sdl.Render(sch))); err != nil {
			return err
		}
		if err := db.store.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// Close flushes and closes the database.
func (db *Database) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	if db.store != nil {
		return db.store.Close()
	}
	return nil
}

// Sync makes all journaled operations durable. The storage layer has its
// own locking, so Sync only needs the read lock and runs in parallel with
// retrieval.
func (db *Database) Sync() error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.store == nil {
		return nil
	}
	return db.store.Sync()
}

// SealLog seals the write-ahead log's tail segment durably (staged
// group-commit batches drain first) and starts a fresh empty tail. A
// graceful server drain calls this after the last check-in commits, so the
// log a clean shutdown leaves behind consists only of sealed, immutable
// segments. In-memory databases have no log; the call is a no-op.
func (db *Database) SealLog() error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.store == nil {
		return nil
	}
	return db.store.Seal()
}

// Schema returns the current schema version.
func (db *Database) Schema() *Schema {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.engine.Schema()
}

// SchemaVersion returns the current schema version number.
func (db *Database) SchemaVersion() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.engine.Schema().Version()
}

// SchemaAt returns a historical schema version (1-based).
func (db *Database) SchemaAt(ver int) (*Schema, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.schemaAt(ver)
}

// schemaAt resolves a 1-based schema version.
//
// seed:locked-caller
func (db *Database) schemaAt(ver int) (*schema.Schema, error) {
	return schemaIn(db.schemas, ver)
}

// schemaIn resolves a 1-based schema version in a version-ordered list.
func schemaIn(schemas []*schema.Schema, ver int) (*schema.Schema, error) {
	if ver < 1 || ver > len(schemas) {
		return nil, fmt.Errorf("seed: unknown schema version %d (have 1..%d)", ver, len(schemas))
	}
	return schemas[ver-1], nil
}

// RegisterProcedure registers an attached procedure implementation under
// the name schema elements reference.
func (db *Database) RegisterProcedure(name string, p Procedure) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.engine.RegisterProcedure(name, p)
}

// EvolveSchema derives the next schema version: edit receives a mutable
// clone of the current schema; after a successful edit the schema is
// frozen, every existing item is re-bound and re-validated under it, and
// the new version becomes current. Versions saved earlier keep their old
// schema version for interpretation.
func (db *Database) EvolveSchema(edit func(*Schema) error) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.barrierLocked(); err != nil {
		return err
	}
	next, err := db.engine.Schema().Evolve()
	if err != nil {
		return err
	}
	if err := edit(next); err != nil {
		return err
	}
	if err := next.Freeze(); err != nil {
		return err
	}
	old := db.engine.Schema()
	if err := db.engine.SetSchema(next); err != nil {
		return err
	}
	restore := func() {
		_ = db.engine.SetSchema(old)
		_ = db.engine.RebindSchema()
	}
	if err := db.engine.RebindSchema(); err != nil {
		restore()
		return fmt.Errorf("%w: %v", ErrBadSchemaChange, err)
	}
	if err := db.validateAllLocked(); err != nil {
		restore()
		return fmt.Errorf("%w: %v", ErrBadSchemaChange, err)
	}
	db.schemas = append(db.schemas, next)
	db.gen++
	if db.store != nil {
		if err := db.store.Append(encSchemaRecord(sdl.Render(next))); err != nil {
			return err
		}
		return db.store.Sync()
	}
	return nil
}

// ValidateAll re-checks every consistency rule for every live item — the
// deferred whole-database validation the ablation study A2 compares against
// SEED's eager per-update checking. It only reads, so it runs in parallel
// with retrieval.
func (db *Database) ValidateAll() error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.validateAllLocked()
}

// validateAllLocked checks every object and relationship against the
// schema.
//
// seed:locked-caller
func (db *Database) validateAllLocked() error {
	v := db.engine.View()
	for _, id := range v.Objects() {
		if err := consistency.CheckObject(v, id); err != nil {
			return err
		}
	}
	for _, id := range v.Relationships() {
		if err := consistency.CheckRelationship(v, id); err != nil {
			return err
		}
	}
	sp := pattern.NewSpliced(v)
	for _, rid := range v.Relationships() {
		r, ok := v.Relationship(rid)
		if !ok || !r.Inherits {
			continue
		}
		if err := sp.ValidateInheritor(r.End("inheritor")); err != nil {
			return err
		}
	}
	return nil
}

// Stats summarizes the database state.
type Stats struct {
	Core        core.Stats
	Versions    int
	SchemaV     int
	Generation  uint64 // mutation generation (bumped per visible change)
	LogBytes    int64
	LogSegments int
}

// Stats reports current state statistics.
func (db *Database) Stats() Stats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	s := Stats{Generation: db.gen}
	if db.engine != nil { // nil on a follower before its first bootstrap
		s.Core = db.engine.Stats()
		s.SchemaV = db.engine.Schema().Version()
	}
	s.Versions = db.vers.Count()
	if db.store != nil {
		s.LogBytes = db.store.LogSize()
		s.LogSegments = db.store.Segments()
	}
	return s
}

// journalOneOp is the engine's journal sink for one-operation
// transactions. It runs under db.mu and, under SyncGroupCommit, waits for
// durability there: the engine rolls the operation back if this fails —
// a record the log refuses as oversize included, as nothing was written.
func (db *Database) journalOneOp(records [][]byte) error {
	return db.store.Append(encBatch(records))
}

// maybeCompact runs auto-compaction when the log grows past the threshold.
// Never inside an open transaction: the snapshot would capture uncommitted
// operations and truncate the log before their buffered journal records
// exist — Commit re-triggers the check once the batch is journaled.
//
// seed:locked-caller
func (db *Database) maybeCompact() error {
	if db.engine.InTx() {
		return nil
	}
	if db.store == nil || db.opts.CompactAfter <= 0 || db.store.LogSize() < db.opts.CompactAfter {
		return nil
	}
	return db.compactLocked()
}

// barrierLocked admits a whole-database operation (version save, select,
// delete, vacuum, schema evolution, compaction): the database is open and
// primary, and no transaction is open — the operation would freeze,
// persist or expose through its generation bump a half-applied batch.
//
// seed:locked-caller
func (db *Database) barrierLocked() error {
	switch {
	case db.closed:
		return ErrClosed
	case db.replica:
		return ErrNotPrimary
	case db.engine.InTx():
		return ErrTxOpen
	}
	return nil
}

// Compact writes a full snapshot and truncates the write-ahead log. It is
// rejected while a transaction is open — the snapshot would persist the
// half-applied batch.
func (db *Database) Compact() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.barrierLocked(); err != nil {
		return err
	}
	if db.store == nil {
		return nil
	}
	return db.compactLocked()
}
