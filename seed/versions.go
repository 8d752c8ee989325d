package seed

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/item"
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
	if err := db.barrierLocked(); err != nil {
		return nil, err
	}
	// The version saves exactly the current generation: freeze it once,
	// for the transition rules' Next and as the new version's pinned view.
	snap := db.snapshotLocked()
	if err := db.checkTransitions(snap); err != nil {
		return nil, err
	}
	at := db.clock()
	num, err := db.saveVersionLocked(note, at)
	if err != nil {
		return nil, err
	}
	db.pins.pin(db.vers.Base(), snap, true)
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
	for _, id := range dirty { // deleted items too: their states are the deletion records
		if o, err := db.engine.Object(id); err == nil {
			delta = append(delta, version.Frozen{Kind: item.KindObject, Obj: o})
		} else if r, err := db.engine.Relationship(id); err == nil {
			delta = append(delta, version.Frozen{Kind: item.KindRelationship, Rel: r})
		}
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
	if err := db.barrierLocked(); err != nil {
		return err
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
		if err := db.store.Append(encVersionRecord(recSelectVersion, num)); err != nil {
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
	objs, rels, err := db.vers.Materialize(num)
	if err != nil {
		return err
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
	if err := db.barrierLocked(); err != nil {
		return err
	}
	if err := db.deleteVersionLocked(num); err != nil {
		return err
	}
	db.gen++
	if db.store != nil {
		if err := db.store.Append(encVersionRecord(recDeleteVersion, num)); err != nil {
			return err
		}
		return db.store.Sync()
	}
	return nil
}

// deleteVersionLocked removes a leaf version and drops its pinned view.
//
// seed:locked-caller
func (db *Database) deleteVersionLocked(num VersionNumber) error {
	node, err := db.vers.Delete(num)
	if err == nil {
		db.pins.drop(node)
	}
	return err
}

// Vacuum physically removes deletion tombstones that no saved version
// references: items are marked as deleted instead of being removed (which
// makes version creation cheap), and Vacuum reclaims the marks once they
// can no longer matter to any view. Returns the number of purged items.
func (db *Database) Vacuum() (int, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.barrierLocked(); err != nil {
		return 0, err
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
// from an old version works exactly like retrieval from the current one,
// because a version's view is the frozen generation the version saved —
// pinned at save time, or rebuilt from the version's delta path (see
// versionPins). The view is interpreted under the schema version recorded
// by the version. Version views are immutable and need no further
// synchronization.
func (db *Database) VersionView(num VersionNumber) (View, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	node, err := db.vers.Lookup(num)
	if err != nil {
		return nil, err
	}
	snap, err := db.versionSnapLocked(node)
	if err != nil {
		return nil, err
	}
	return snap.userView(), nil
}

// versionSnapLocked serves a version's frozen generation from the pin set,
// or rebuilds it and pins it: in the base slot if it is the base version.
//
// seed:locked-caller
func (db *Database) versionSnapLocked(n *version.Node) (*snapshotCache, error) {
	if snap := db.pins.lookup(n); snap != nil {
		return snap, nil
	}
	snap, err := db.rebuildVersionLocked(n)
	if err == nil {
		db.pins.pin(n, snap, n == db.vers.Base())
	}
	return snap, err
}

// rebuildVersionLocked derives a version's frozen generation from its delta
// path, under the schema the version was saved with. It carries the
// engine's attribute indexes, so a query plans alike on a pinned and a
// rebuilt view.
//
// seed:locked-caller
func (db *Database) rebuildVersionLocked(n *version.Node) (*snapshotCache, error) {
	sch, err := db.schemaAt(n.SchemaVer)
	if err != nil {
		return nil, err
	}
	objs, rels, err := db.vers.Materialize(n.Num)
	if err != nil {
		return nil, err
	}
	raw, err := core.FreezeItems(sch, db.engine.AttrIndexes(), objs, rels)
	if err != nil {
		return nil, err
	}
	return &snapshotCache{raw: raw}, nil
}

// versionPins keeps at most two saved versions' frozen generations alive:
// the base version's, pinned by SaveVersion, and the most recently rebuilt
// other one's. Any other version is rebuilt from its delta path when read,
// so the retained heap is two generations however many versions exist. The
// bound has no knob: transition rules read the base, a user browsing
// history reads one old version at a time, and more slots would only hold
// whole-database copies longer. VersionView runs under db.mu.RLock, so the
// slots have their own mutex, held for a lookup or a swap and never across
// a rebuild (snapMu would stall db.View() behind one). Slots are keyed by
// node, so a deleted and re-saved number never matches a stale one.
type versionPins struct {
	mu    sync.Mutex
	slots [2]versionPin // seed:guarded-by(mu) — the base version's, the last rebuilt one's
}

type versionPin struct {
	node *version.Node
	snap *snapshotCache
}

// lookup returns n's pinned generation, or nil.
func (p *versionPins) lookup(n *version.Node) *snapshotCache {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, s := range p.slots {
		if s.node == n {
			return s.snap
		}
	}
	return nil
}

// pin puts n's generation in the base slot or the rebuilt slot.
func (p *versionPins) pin(n *version.Node, snap *snapshotCache, base bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	i := 1
	if base {
		i = 0
	}
	p.slots[i] = versionPin{n, snap}
}

// drop empties n's slot, or every slot when n is nil (the version tree
// was replaced).
func (p *versionPins) drop(n *version.Node) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.slots {
		if n == nil || p.slots[i].node == n {
			p.slots[i] = versionPin{}
		}
	}
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
