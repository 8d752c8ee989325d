package seed

import (
	"fmt"
	"time"

	"repro/internal/item"
	"repro/internal/pattern"
	"repro/internal/version"
)

// Version management (paper, section "Versions"): explicit snapshots with
// delta storage, a decimal-classification history tree, alternatives by
// selecting historical versions, history retrieval, and read-only views to
// any saved version.

// VersionInfo describes one saved version.
type VersionInfo struct {
	Num           VersionNumber
	Note          string
	CreatedAt     time.Time
	SchemaVersion int
	DeltaSize     int
	Parent        VersionNumber // empty for the first version
}

// SaveVersion takes an explicit snapshot of the current state: only items
// changed since the previous version are stored (delta storage). The
// new version becomes the basis of further work and its number is returned.
func (db *Database) SaveVersion(note string) (VersionNumber, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil, ErrClosed
	}
	if db.replica {
		return nil, ErrNotPrimary
	}
	if db.engine.InTx() {
		// A version must never freeze a half-applied batch, and the gen
		// bump would let readers snapshot mid-transaction state.
		return nil, ErrTxOpen
	}
	if err := db.checkTransitions(); err != nil {
		return nil, err
	}
	at := db.clock()
	num, err := db.saveVersionLocked(note, at)
	if err != nil {
		return nil, err
	}
	db.gen++
	if db.store != nil {
		if err := db.store.Append(encSaveVersion(note, at, num)); err != nil {
			return nil, err
		}
		if err := db.store.Sync(); err != nil {
			return nil, err
		}
		if err := db.maybeCompact(); err != nil {
			return nil, err
		}
	}
	return num, nil
}

// saveVersionLocked captures the dirty set as a new version node.
//
// seed:locked-caller
func (db *Database) saveVersionLocked(note string, at time.Time) (VersionNumber, error) {
	dirty := db.engine.DirtyIDs()
	delta := make([]version.Frozen, 0, len(dirty))
	for _, id := range dirty {
		kind, ok := db.engine.KindOf(id)
		if !ok {
			continue
		}
		var f version.Frozen
		f.Kind = kind
		if kind == item.KindObject {
			o, err := db.engine.Object(id)
			if err != nil {
				return nil, err
			}
			f.Obj = o
		} else {
			r, err := db.engine.Relationship(id)
			if err != nil {
				return nil, err
			}
			f.Rel = r
		}
		delta = append(delta, f)
	}
	node, err := db.vers.Freeze(delta, note, db.engine.Schema().Version(), at)
	if err != nil {
		return nil, err
	}
	db.engine.ClearDirty()
	return node.Num, nil
}

// SelectVersion makes a saved version the basis of further work: the
// current state is replaced by the view to that version. Work saved on top
// of a historical version becomes an alternative. The current state must be
// saved first (use SelectVersionDiscard to drop unsaved changes).
func (db *Database) SelectVersion(num VersionNumber) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if db.replica {
		return ErrNotPrimary
	}
	if db.engine.DirtyCount() > 0 {
		return fmt.Errorf("%w: %d changed items", ErrUnsavedChanges, db.engine.DirtyCount())
	}
	return db.selectVersionJournaled(num)
}

// SelectVersionDiscard is SelectVersion dropping unsaved changes.
func (db *Database) SelectVersionDiscard(num VersionNumber) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if db.replica {
		return ErrNotPrimary
	}
	return db.selectVersionJournaled(num)
}

// selectVersionJournaled restores a version and journals the switch.
//
// seed:locked-caller
func (db *Database) selectVersionJournaled(num VersionNumber) error {
	if db.engine.InTx() {
		return ErrTxOpen // Restore would clobber the open transaction
	}
	if err := db.selectVersionLocked(num); err != nil {
		return err
	}
	// selectVersionLocked already bumped the generation.
	if db.store != nil {
		if err := db.store.Append(encSelectVersion(num)); err != nil {
			return err
		}
		return db.store.Sync()
	}
	return nil
}

// selectVersionLocked restores the materialized state of a version.
//
// seed:locked-caller
func (db *Database) selectVersionLocked(num VersionNumber) error {
	states, err := db.vers.Materialize(num)
	if err != nil {
		return err
	}
	objs := make([]item.Object, 0, len(states))
	rels := make([]item.Relationship, 0)
	for _, f := range states {
		if f.Kind == item.KindObject {
			objs = append(objs, f.Obj)
		} else {
			rels = append(rels, f.Rel)
		}
	}
	db.engine.Restore(objs, rels)
	// The engine state is replaced from here on: bump the generation so
	// stale snapshots are never served, even when a later step fails.
	db.gen++
	// Frozen states carry schema bindings from their creation time;
	// re-bind them to the current schema (selection fails if evolution
	// removed a class the version still uses).
	if err := db.engine.RebindSchema(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadSchemaChange, err)
	}
	if _, err := db.vers.Select(num); err != nil {
		return err
	}
	return nil
}

// DeleteVersion removes a leaf version. Versions cannot be modified,
// except for deletion.
func (db *Database) DeleteVersion(num VersionNumber) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if db.replica {
		return ErrNotPrimary
	}
	if db.engine.InTx() {
		return ErrTxOpen // the gen bump would expose mid-transaction state
	}
	if err := db.vers.Delete(num); err != nil {
		return err
	}
	db.gen++
	if db.store != nil {
		if err := db.store.Append(encDeleteVersion(num)); err != nil {
			return err
		}
		return db.store.Sync()
	}
	return nil
}

// Vacuum physically removes deletion tombstones that no saved version
// references: items are marked as deleted instead of being removed (which
// makes version creation cheap), and Vacuum reclaims the marks once they
// can no longer matter to any view. Returns the number of purged items.
func (db *Database) Vacuum() (int, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return 0, ErrClosed
	}
	if db.replica {
		return 0, ErrNotPrimary
	}
	if db.engine.InTx() {
		return 0, ErrTxOpen
	}
	n, err := db.vacuumLocked()
	if err != nil {
		return 0, err
	}
	db.gen++
	if db.store != nil && n > 0 {
		e := newRecordEncoder(recVacuum)
		if err := db.store.Append(e.Bytes()); err != nil {
			return n, err
		}
		return n, db.store.Sync()
	}
	return n, nil
}

// vacuumLocked drops version deltas no longer referenced by any node.
//
// seed:locked-caller
func (db *Database) vacuumLocked() (int, error) {
	referenced := make(map[ID]bool)
	for _, node := range db.vers.List() {
		for _, id := range node.DeltaIDs() {
			referenced[id] = true
		}
	}
	return db.engine.PurgeDeleted(func(id ID) bool { return referenced[id] })
}

// VersionView returns the user-facing view to a saved version: retrieval
// from an old version works exactly like retrieval from the current one.
// The view is interpreted under the schema version recorded by the version.
// Version views are immutable and need no further synchronization.
func (db *Database) VersionView(num VersionNumber) (View, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	node, err := db.vers.Lookup(num)
	if err != nil {
		return nil, err
	}
	sch, err := db.schemaAt(node.SchemaVer)
	if err != nil {
		return nil, err
	}
	states, err := db.vers.Materialize(num)
	if err != nil {
		return nil, err
	}
	return pattern.NewSpliced(version.NewView(sch, states)), nil
}

// Versions lists all saved versions sorted by number.
func (db *Database) Versions() []VersionInfo {
	db.mu.RLock()
	defer db.mu.RUnlock()
	nodes := db.vers.List()
	out := make([]VersionInfo, 0, len(nodes))
	for _, n := range nodes {
		out = append(out, infoOf(n))
	}
	return out
}

// BaseVersion returns the version the current work is based on (ok=false
// before the first snapshot).
func (db *Database) BaseVersion() (VersionInfo, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	b := db.vers.Base()
	if b == nil {
		return VersionInfo{}, false
	}
	return infoOf(b), true
}

// NextVersionNumber previews the number SaveVersion would assign.
func (db *Database) NextVersionNumber() VersionNumber {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.vers.NextNumber()
}

// HistoryOf lists the versions that store a state of the given item,
// optionally restricted to the classification subtree rooted at prefix —
// "find all versions of object 'AlarmHandler', beginning with version 2.0".
func (db *Database) HistoryOf(id ID, prefix VersionNumber) []VersionInfo {
	db.mu.RLock()
	defer db.mu.RUnlock()
	nodes := db.vers.VersionsOf(id, prefix)
	out := make([]VersionInfo, 0, len(nodes))
	for _, n := range nodes {
		out = append(out, infoOf(n))
	}
	return out
}

func infoOf(n *version.Node) VersionInfo {
	info := VersionInfo{
		Num:           n.Num,
		Note:          n.Note,
		CreatedAt:     n.CreatedAt,
		SchemaVersion: n.SchemaVer,
		DeltaSize:     n.DeltaSize(),
	}
	if p := n.Parent(); p != nil {
		info.Parent = p.Num
	}
	return info
}
