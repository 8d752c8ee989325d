package seed

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/item"
	"repro/internal/schema"
	"repro/internal/sdl"
	"repro/internal/storage"
	"repro/internal/version"
)

// Snapshot format (the payload handed to storage.Store.Compact):
//
//	format   uvarint (2)
//	nextID   uvarint
//	schemas  count + SDL text per schema version
//	symbols  the symbol table: count + strings, serialized once — item
//	         encodings reference strings by uvarint symbol
//	items    blob: objects count + sym-coded encodings (against the latest
//	         schema), then rels count + sym-coded encodings
//	dirty    count + IDs
//	versions the version tree (per-node deltas encoded against the schema
//	         version each node was created under)

const snapshotFormat = 2

// compactLocked rewrites the log as one snapshot record, then rebuilds the
// engine's intern tables from the live rows.
//
// seed:locked-caller
func (db *Database) compactLocked() error {
	payload, err := db.encodeSnapshot()
	if err != nil {
		return err
	}
	if err := db.store.Compact(payload); err != nil {
		return err
	}
	db.rebuildStoreLocked()
	return nil
}

// rebuildStoreLocked re-interns the engine's state into a fresh store. The
// columnar store's symbol/value intern tables are append-only between
// rebuilds — a long churn of unique short values grows them without bound
// (only live rows keep the table entries referenced) — so every compaction
// pays one capture+restore to shed the dead entries, on the primary and on
// any database that compacts during catch-up. Compact already refuses to
// run inside a transaction, which is the one state Restore cannot handle;
// readers keep their pinned snapshots and rebuild from the fresh store on
// the next view.
//
// seed:locked-caller
func (db *Database) rebuildStoreLocked() {
	en := db.engine
	next := en.NextID()
	dirty := en.DirtyIDs()
	objs, rels := en.CaptureAll()
	en.Restore(objs, rels)
	en.RestoreDirty(dirty)
	en.ForceNextID(next)
	db.gen++
}

// SymbolCount reports the engine's total interned symbols (class, name and
// short-value tables; 0 on a follower before its first bootstrap). The churn regression test gates on it shrinking
// across a Compact.
func (db *Database) SymbolCount() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.engine == nil {
		return 0
	}
	return db.engine.SymbolCount()
}

// encodeSnapshot serializes the full database state.
//
// seed:locked-caller
func (db *Database) encodeSnapshot() ([]byte, error) {
	e := storage.NewEncoder(nil)
	e.Uint64(snapshotFormat)
	e.Uint64(uint64(db.engine.NextID()))
	e.Int(len(db.schemas))
	for _, sch := range db.schemas {
		e.String(sdl.Render(sch))
	}
	// Items are sym-coded into a side buffer first, so the symbol table they
	// populate can be serialized ahead of them.
	objs, rels := db.engine.CaptureAll()
	tab := item.NewSymTab()
	be := storage.NewEncoder(nil)
	be.Int(len(objs))
	for i := range objs {
		item.EncodeObjectSym(be, tab, &objs[i])
	}
	be.Int(len(rels))
	for i := range rels {
		item.EncodeRelationshipSym(be, tab, &rels[i])
	}
	item.EncodeSymTab(e, tab)
	e.Blob(be.Bytes())
	dirty := db.engine.DirtyIDs()
	e.Int(len(dirty))
	for _, id := range dirty {
		e.Uint64(uint64(id))
	}
	db.vers.Encode(e)
	return e.Bytes(), nil
}

// loadSnapshot rebuilds engine, schemas and version tree from a snapshot
// record.
//
// seed:locked-caller — called during pre-publication recovery.
func (db *Database) loadSnapshot(payload []byte) error {
	d := storage.NewDecoder(payload)
	format, err := d.Uint64()
	if err != nil {
		return err
	}
	if format != snapshotFormat {
		return fmt.Errorf("seed: unsupported snapshot format %d", format)
	}
	nextID, err := d.Uint64()
	if err != nil {
		return err
	}
	schemaCount, err := d.Int()
	if err != nil {
		return err
	}
	if schemaCount < 1 {
		return fmt.Errorf("seed: snapshot without schemas")
	}
	db.schemas = db.schemas[:0]
	for i := 0; i < schemaCount; i++ {
		text, err := d.String()
		if err != nil {
			return err
		}
		sch, err := sdl.Parse(text)
		if err != nil {
			return fmt.Errorf("seed: snapshot schema %d: %w", i+1, err)
		}
		if sch.Version() != i+1 {
			return fmt.Errorf("seed: snapshot schema order: got version %d at position %d", sch.Version(), i+1)
		}
		db.schemas = append(db.schemas, sch)
	}
	latest := db.schemas[len(db.schemas)-1]
	en, err := core.NewEngine(latest)
	if err != nil {
		return err
	}
	en.BeginReplay()

	objs, rels, err := decodeItems(d, latest)
	if err != nil {
		return err
	}
	en.Restore(objs, rels)
	en.ForceNextID(item.ID(nextID))

	dirtyCount, err := d.Int()
	if err != nil {
		return err
	}
	dirty := make([]item.ID, dirtyCount)
	for i := range dirty {
		id, err := d.Uint64()
		if err != nil {
			return err
		}
		dirty[i] = item.ID(id)
	}
	en.RestoreDirty(dirty)

	vers, err := version.Decode(d, func(ver int) (*Schema, error) {
		return db.schemaAt(ver)
	})
	if err != nil {
		return err
	}
	db.engine = en
	db.vers = vers
	return nil
}

// decodeItems reads the item sections: the symbol table, then the sym-coded
// items blob.
func decodeItems(d *storage.Decoder, latest *schema.Schema) ([]item.Object, []item.Relationship, error) {
	strs, err := item.DecodeSymTab(d)
	if err != nil {
		return nil, nil, err
	}
	body, err := d.Blob()
	if err != nil {
		return nil, nil, err
	}
	bd := storage.NewDecoder(body)
	objCount, err := bd.Int()
	if err != nil {
		return nil, nil, err
	}
	objs := make([]item.Object, objCount)
	for i := range objs {
		if objs[i], err = item.DecodeObjectSym(bd, strs, latest); err != nil {
			return nil, nil, err
		}
	}
	relCount, err := bd.Int()
	if err != nil {
		return nil, nil, err
	}
	rels := make([]item.Relationship, relCount)
	for i := range rels {
		if rels[i], err = item.DecodeRelationshipSym(bd, strs, latest); err != nil {
			return nil, nil, err
		}
	}
	return objs, rels, nil
}
