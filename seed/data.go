package seed

import (
	"fmt"
	"sync"

	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/item"
	"repro/internal/pattern"
	"repro/internal/storage"
)

// Data manipulation: thin, write-locked wrappers over the engine's
// operational interface, plus snapshot retrieval. Every operation is
// validated eagerly; a returned error means the database state is
// unchanged. Mutations serialize on the write lock; retrieval pins
// immutable snapshots and runs in parallel (see DESIGN.md section 6).

// write is the one entry point of every mutation, the Database's and the
// Tx's: it takes the write lock, refuses writes to a finished transaction,
// a closed database or a follower, and refuses updates addressed to
// inherited (virtual) items among guard, which are updatable only in the
// pattern itself. Then it runs op. With tx nil, op runs as a one-operation
// transaction the engine journals and publishes before it returns (or
// rolls back, leaving the state unchanged); otherwise op is staged in tx.
//
// seed:locks-callback(mu) — op closures run under the write lock taken
// below, so guardedby treats their field accesses as guarded.
func (db *Database) write(tx *Tx, guard []ID, op func() (ID, error)) (ID, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	switch {
	case tx != nil && tx.done:
		return NoID, ErrTxDone
	case db.closed:
		return NoID, ErrClosed
	case db.replica:
		return NoID, ErrNotPrimary
	}
	for _, id := range guard {
		if pattern.IsVirtualID(id) {
			return NoID, fmt.Errorf("%w (item %d)", ErrInheritedData, id)
		}
	}
	if tx != nil {
		db.engine.SetActiveTx(tx.core)
		defer db.engine.ClearActiveTx()
		return op()
	}
	id, err := op()
	if err != nil {
		return NoID, err
	}
	db.gen++
	return id, db.maybeCompact()
}

// endsOf lists a relationship's end objects for the write guard.
func endsOf(ends map[string]ID) []ID {
	all := make([]ID, 0, len(ends))
	for _, o := range ends {
		all = append(all, o)
	}
	return all
}

// CreateObject creates an independent object of a top-level class.
func (db *Database) CreateObject(className, name string) (ID, error) {
	return db.write(nil, nil, func() (ID, error) { return db.engine.CreateObject(className, name) })
}

// CreatePatternObject creates an independent object marked as a pattern.
func (db *Database) CreatePatternObject(className, name string) (ID, error) {
	return db.write(nil, nil, func() (ID, error) { return db.engine.CreatePatternObject(className, name) })
}

// CreateSubObject creates a dependent object under a parent item in a role.
func (db *Database) CreateSubObject(parent ID, role string) (ID, error) {
	return db.write(nil, []ID{parent}, func() (ID, error) { return db.engine.CreateSubObject(parent, role) })
}

// CreateValueObject creates a leaf sub-object carrying a value.
func (db *Database) CreateValueObject(parent ID, role string, v Value) (ID, error) {
	return db.write(nil, []ID{parent}, func() (ID, error) { return db.engine.CreateValueObject(parent, role, v) })
}

// SetValue sets (or clears, with Undefined) a value object's value.
func (db *Database) SetValue(id ID, v Value) error {
	_, err := db.write(nil, []ID{id}, func() (ID, error) { return id, db.engine.SetValue(id, v) })
	return err
}

// CreateRelationship creates a relationship of the named association.
func (db *Database) CreateRelationship(assoc string, ends map[string]ID) (ID, error) {
	return db.write(nil, endsOf(ends), func() (ID, error) { return db.engine.CreateRelationship(assoc, ends) })
}

// Delete marks an item and everything depending on it as deleted.
func (db *Database) Delete(id ID) error {
	_, err := db.write(nil, []ID{id}, func() (ID, error) { return id, db.engine.Delete(id) })
	return err
}

// Reclassify moves a data item within its generalization hierarchy.
func (db *Database) Reclassify(id ID, newName string) error {
	_, err := db.write(nil, []ID{id}, func() (ID, error) { return id, db.engine.Reclassify(id, newName) })
	return err
}

// MarkPattern turns an independent object or relationship into a pattern.
func (db *Database) MarkPattern(id ID) error {
	_, err := db.write(nil, []ID{id}, func() (ID, error) { return id, db.engine.MarkPattern(id) })
	return err
}

// ClearPattern turns a pattern back into a normal item (no inheritors).
func (db *Database) ClearPattern(id ID) error {
	_, err := db.write(nil, []ID{id}, func() (ID, error) { return id, db.engine.ClearPattern(id) })
	return err
}

// Inherit lets a normal item inherit a pattern; returns the ID of the
// inherits-relationship.
func (db *Database) Inherit(patternID, inheritorID ID) (ID, error) {
	return db.write(nil, []ID{patternID, inheritorID}, func() (ID, error) { return db.engine.Inherit(patternID, inheritorID) })
}

// Disinherit removes the inherits-relationship between a pattern and an
// inheritor.
func (db *Database) Disinherit(patternID, inheritorID ID) error {
	_, err := db.write(nil, []ID{patternID, inheritorID}, func() (ID, error) {
		raw := db.engine.View()
		for _, rid := range raw.RelationshipsOf(inheritorID) {
			r, ok := raw.Relationship(rid)
			if ok && r.Inherits &&
				r.End(item.InheritsPatternRole) == patternID &&
				r.End(item.InheritsInheritorRole) == inheritorID {
				return rid, db.engine.Delete(rid)
			}
		}
		return NoID, fmt.Errorf("seed: item %d does not inherit pattern %d", inheritorID, patternID)
	})
	return err
}

// Tx is one staged transaction: a private batch of validated updates that
// becomes visible (and durable) atomically at Commit. Any number of
// transactions may be staged concurrently; transactions with disjoint write
// sets commit independently, overlapping ones fail with ErrTxConflict at
// the first overlapping operation (retryable: roll back and re-stage). A Tx
// is not safe for concurrent use by multiple goroutines — one client, one
// transaction, one goroutine, which is exactly the server's check-in shape.
type Tx struct {
	db   *Database
	core *core.Tx
	done bool
}

// BeginTx opens a new staged transaction. Begin pins the current snapshot:
// while transactions stage, View and RawView keep serving the last
// committed state — readers never observe a half-applied batch.
func (db *Database) BeginTx() (*Tx, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil, ErrClosed
	}
	if db.replica {
		return nil, ErrNotPrimary
	}
	tx := &Tx{db: db, core: db.engine.BeginTx()}
	// Freeze the last committed state now: once staging starts, the live
	// maps may hold uncommitted state for the items this transaction
	// claims, and a lazy freeze must never read those.
	db.snapshotLocked()
	return tx, nil
}

// Done reports whether the transaction was committed or rolled back.
func (tx *Tx) Done() bool {
	tx.db.mu.RLock()
	defer tx.db.mu.RUnlock()
	return tx.done
}

// CreateObject stages creation of an independent object.
func (tx *Tx) CreateObject(className, name string) (ID, error) {
	return tx.db.write(tx, nil, func() (ID, error) { return tx.db.engine.CreateObject(className, name) })
}

// CreateSubObject stages creation of a dependent object.
func (tx *Tx) CreateSubObject(parent ID, role string) (ID, error) {
	return tx.db.write(tx, []ID{parent}, func() (ID, error) { return tx.db.engine.CreateSubObject(parent, role) })
}

// CreateValueObject stages creation of a leaf sub-object carrying a value.
func (tx *Tx) CreateValueObject(parent ID, role string, v Value) (ID, error) {
	return tx.db.write(tx, []ID{parent}, func() (ID, error) { return tx.db.engine.CreateValueObject(parent, role, v) })
}

// SetValue stages a value update.
func (tx *Tx) SetValue(id ID, v Value) error {
	_, err := tx.db.write(tx, []ID{id}, func() (ID, error) { return id, tx.db.engine.SetValue(id, v) })
	return err
}

// CreateRelationship stages a relationship of the named association.
func (tx *Tx) CreateRelationship(assoc string, ends map[string]ID) (ID, error) {
	return tx.db.write(tx, endsOf(ends), func() (ID, error) { return tx.db.engine.CreateRelationship(assoc, ends) })
}

// Delete stages a deletion cascade.
func (tx *Tx) Delete(id ID) error {
	_, err := tx.db.write(tx, []ID{id}, func() (ID, error) { return id, tx.db.engine.Delete(id) })
	return err
}

// Reclassify stages a re-classification.
func (tx *Tx) Reclassify(id ID, newName string) error {
	_, err := tx.db.write(tx, []ID{id}, func() (ID, error) { return id, tx.db.engine.Reclassify(id, newName) })
	return err
}

// ResolvePath navigates a qualified name in the transaction's user view:
// resolution sees the transaction's own staged effects (a batch can address
// items it created earlier) but never another transaction's. Each call
// splices a fresh view over the live engine state under the lock; that is
// cheap because the live view lists its inherits-relationships, so the
// splice costs the inherited information, not the relationship count. The
// live state may hold other transactions' staged items, but their write
// sets are disjoint from this transaction's by the claim discipline, so
// resolution within this transaction's domain is unaffected.
func (tx *Tx) ResolvePath(path string) (ID, error) {
	db := tx.db
	db.mu.RLock()
	defer db.mu.RUnlock()
	if tx.done {
		return NoID, ErrTxDone
	}
	return resolvePath(pattern.NewSpliced(db.engine.View()), path)
}

// Commit makes the staged batch permanent: it publishes atomically into a
// new snapshot generation (the mutation generation advances once for the
// whole batch) and appends the batch to the write-ahead log as one record.
// Under SyncGroupCommit the durability wait happens after the database
// lock is released, so concurrent commits coalesce into shared fsyncs. A
// batch too large for one log record (storage.ErrOversize) is rolled back
// instead: nothing of it publishes.
func (tx *Tx) Commit() error {
	wait, err := tx.commit()
	if err != nil || wait == nil {
		return err
	}
	return wait()
}

// commit publishes the batch and stages its log record under the write
// lock, returning the durability wait (nil when there is nothing to wait
// for).
func (tx *Tx) commit() (func() error, error) {
	db := tx.db
	db.mu.Lock()
	defer db.mu.Unlock()
	switch {
	case tx.done:
		return nil, ErrTxDone
	case db.closed:
		return nil, ErrClosed
	}
	tx.done = true
	var rec []byte
	if records := tx.core.Records(); db.store != nil && len(records) > 0 {
		// Sized before anything publishes: the log refuses the record whole.
		if rec = encBatch(records); len(rec) > storage.MaxRecord {
			if err := db.engine.RollbackTx(tx.core); err != nil {
				return nil, err
			}
			db.gen++
			return nil, fmt.Errorf("seed: transaction record of %d bytes: %w", len(rec), storage.ErrOversize)
		}
	}
	if _, err := db.engine.CommitTx(tx.core); err != nil {
		return nil, err
	}
	// The batch is applied in memory: advance the generation even if
	// journaling fails below, so the snapshot cache cannot keep serving
	// the pre-transaction state.
	db.gen++
	var wait func() error
	var err error
	if rec != nil {
		wait, err = db.store.AppendAsync(rec)
	}
	if err == nil {
		// Compaction deferred by in-transaction operations runs now that
		// the batch is in the log — best-effort: the batch IS committed,
		// so a compaction failure (which leaves the log intact and retries
		// on the next trigger) must not read as a failed commit, or
		// callers would re-apply an already-applied batch.
		_ = db.maybeCompact()
	}
	return wait, err
}

// Rollback undoes the staged batch. Rolling back a finished transaction is
// a no-op, so cleanup paths can call it unconditionally.
func (tx *Tx) Rollback() error {
	db := tx.db
	db.mu.Lock()
	defer db.mu.Unlock()
	if tx.done {
		return nil
	}
	tx.done = true
	if err := db.engine.RollbackTx(tx.core); err != nil {
		return err
	}
	// Conservative: the touched items are back in their pre-transaction
	// state; bumping the generation re-freezes them from the live maps.
	db.gen++
	return nil
}

// ---- Retrieval ----

// snapshotCache is one immutable snapshot of a mutation generation: the
// frozen raw view plus the lazily built user view over it. Both are safe
// for unsynchronized concurrent use and stay consistent while mutations
// proceed on the engine.
type snapshotCache struct {
	gen      uint64
	raw      View // core.FrozenView of the generation
	userOnce sync.Once
	user     View
}

// userView builds the user view on first use. A generation that holds no
// pattern item and no inherits link is its own user view — the splice
// would be the identity — and every other generation is spliced. The base
// is frozen, so either is consistent no matter when it is built.
func (c *snapshotCache) userView() View {
	c.userOnce.Do(func() {
		if pf, ok := c.raw.(interface{ PatternFree() bool }); ok && pf.PatternFree() {
			c.user = c.raw
			return
		}
		c.user = pattern.NewSpliced(c.raw)
	})
	return c.user
}

// snapshotLocked returns the snapshot of the current generation, building
// and caching it if necessary. Callers hold db.mu in either mode — the
// generation cannot advance while they do. While a transaction is open the
// generation does not advance either, so the snapshot pinned by BeginTx keeps
// serving readers the last committed state until Commit.
//
// seed:locked-caller
func (db *Database) snapshotLocked() *snapshotCache {
	if c := db.snap.Load(); c != nil && c.gen == db.gen {
		return c
	}
	db.snapMu.Lock()
	defer db.snapMu.Unlock()
	if c := db.snap.Load(); c != nil && c.gen == db.gen {
		return c
	}
	c := &snapshotCache{gen: db.gen, raw: db.engine.FrozenView()}
	db.snap.Store(c)
	return c
}

// View returns the user-facing view of the current state: deleted items
// and patterns are invisible; inherited pattern data appears in the context
// of the inheritors. The view is an immutable snapshot pinned at the time
// of the call: it acquires the lock once, and every subsequent method call
// is lock-free and consistent — a walk over the view can never observe a
// half-applied batch. Snapshots are cached per mutation generation, so
// repeated calls between mutations share one copy.
func (db *Database) View() View {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.snapshotLocked().userView()
}

// RawView returns the administrative view: patterns visible, inherited data
// not spliced. Like View, it is an immutable snapshot pinned at call time.
func (db *Database) RawView() View {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.snapshotLocked().raw
}

// Origin reports the provenance of a virtual (inherited) item in the
// current user view.
func (db *Database) Origin(id ID) (source, patternRoot, inheritor ID, ok bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	sp, ok := db.snapshotLocked().userView().(*pattern.Spliced)
	if !ok {
		return NoID, NoID, NoID, false // an unspliced generation has no virtual items
	}
	org, ok := sp.Origin(id)
	if !ok {
		return NoID, NoID, NoID, false
	}
	return org.Source, org.Pattern, org.Inheritor, true
}

// GetObject resolves an independent object by name in the user view —
// SEED's "simple retrieval by name".
func (db *Database) GetObject(name string) (Object, bool) {
	v := db.View()
	id, ok := v.ObjectByName(name)
	if !ok {
		return Object{}, false
	}
	return v.Object(id)
}

// ResolvePath navigates a qualified name ("Alarms.Text[0].Selector") in the
// user view of the last committed state. A staged batch that must address
// items it created earlier resolves through Tx.ResolvePath instead.
func (db *Database) ResolvePath(path string) (ID, error) {
	return resolvePath(db.View(), path)
}

// ResolvePathRaw navigates a qualified name in the raw (administrative)
// view, where patterns are visible — the way to address a pattern's
// sub-objects for updates, since pattern information is updatable only in
// the pattern itself.
func (db *Database) ResolvePathRaw(path string) (ID, error) {
	return resolvePath(db.RawView(), path)
}

// resolvePath parses a qualified name and navigates it in v.
func resolvePath(v View, path string) (ID, error) {
	p, err := ParsePath(path)
	if err != nil {
		return NoID, err
	}
	id, ok := item.Resolve(v, p)
	if !ok {
		return NoID, fmt.Errorf("seed: no object at path %q", path)
	}
	return id, nil
}

// PathOf reconstructs an object's qualified name in the user view.
func (db *Database) PathOf(id ID) (Path, bool) {
	return item.PathOf(db.View(), id)
}

// Completeness evaluates every completeness rule over the user view: the
// formal detection of incomplete information.
func (db *Database) Completeness() []Finding {
	return consistency.CheckCompleteness(db.View())
}

// CompletenessOf evaluates the completeness rules for one item.
func (db *Database) CompletenessOf(id ID) []Finding {
	return consistency.CheckItemCompleteness(db.View(), id)
}
