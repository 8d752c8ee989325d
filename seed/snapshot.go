package seed

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/item"
	"repro/internal/schema"
	"repro/internal/sdl"
	"repro/internal/version"
)

// Snapshot format (the payload handed to storage.Store.Compact):
//
//	format   uvarint (2)
//	nextID   uvarint
//	schemas  count + SDL text per schema version
//	symbols  the symbol table: count + strings, serialized once
//	items    blob: objects count + object encodings (against the latest
//	         schema), then rels count + relationship encodings
//	dirty    count + IDs
//	versions the version tree (per-node deltas encoded against the schema
//	         version each node was created under)
//
// Items and version deltas share one codec (internal/item) with two string
// modes: the items blob writes each string as a uvarint symbol of the
// table ahead of it, version deltas write strings inline. Decoding follows
// codec.Decoder's contract: the first failure is kept, every count is
// bounded by the bytes left, and loadSnapshot checks the decoder before it
// builds anything from what it read.

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
	e := codec.NewEncoder(nil)
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
	be := codec.NewEncoder(nil)
	be.Int(len(objs))
	for i := range objs {
		item.EncodeObject(be, tab, &objs[i])
	}
	be.Int(len(rels))
	for i := range rels {
		item.EncodeRelationship(be, tab, &rels[i])
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
// record. It decodes the whole payload before it touches the database: a
// malformed snapshot returns the decoder's first error and leaves the
// database as it was.
//
// seed:locked-caller — called during pre-publication recovery.
func (db *Database) loadSnapshot(payload []byte) error {
	d := codec.NewDecoder(payload)
	format := d.Uint64()
	if err := d.Err(); err != nil {
		return err
	}
	if format != snapshotFormat {
		return fmt.Errorf("seed: unsupported snapshot format %d", format)
	}
	nextID := item.ID(d.Uint64())
	texts := make([]string, d.Count())
	for i := range texts {
		texts[i] = d.String()
	}
	if err := d.Err(); err != nil {
		return err
	}
	if len(texts) == 0 {
		return fmt.Errorf("seed: snapshot without schemas")
	}
	schemas := make([]*Schema, len(texts))
	for i, text := range texts {
		sch, err := sdl.Parse(text)
		if err != nil {
			return fmt.Errorf("seed: snapshot schema %d: %w", i+1, err)
		}
		if sch.Version() != i+1 {
			return fmt.Errorf("seed: snapshot schema order: got version %d at position %d", sch.Version(), i+1)
		}
		schemas[i] = sch
	}
	latest := schemas[len(schemas)-1]
	objs, rels := decodeItems(d, latest)
	dirty := make([]item.ID, d.Count())
	for i := range dirty {
		dirty[i] = item.ID(d.Uint64())
	}
	vers, err := version.Decode(d, func(ver int) (*Schema, error) { return schemaIn(schemas, ver) })
	if err != nil {
		return err
	}

	en, err := core.NewEngine(latest)
	if err != nil {
		return err
	}
	en.Restore(objs, rels)
	en.ForceNextID(nextID)
	en.RestoreDirty(dirty)
	db.schemas = schemas
	db.engine = en
	db.vers = vers
	return nil
}

// decodeItems reads the item sections: the symbol table, then the items
// blob, symbol-coded against the latest schema. A failure is kept in d.
func decodeItems(d *codec.Decoder, latest *schema.Schema) ([]item.Object, []item.Relationship) {
	tab := item.DecodeSymTab(d)
	bd := codec.NewDecoder(d.Blob())
	objs := make([]item.Object, bd.Count())
	for i := range objs {
		objs[i] = item.DecodeObject(bd, tab, latest)
	}
	rels := make([]item.Relationship, bd.Count())
	for i := range rels {
		rels[i] = item.DecodeRelationship(bd, tab, latest)
	}
	d.Fail(bd.Err())
	return objs, rels
}
