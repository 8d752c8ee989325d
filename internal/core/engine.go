// Package core implements the SEED engine: the operational interface for
// creating, updating, re-classifying, and deleting objects and
// relationships, with eager enforcement of every consistency rule on every
// update ("Whenever an update operation is executed, SEED checks all
// consistency rules ... Thus SEED permanently ensures database
// consistency").
//
// The engine maintains the current database state. Saved versions, version
// views, and pattern splicing live in internal/version and internal/pattern
// and observe the engine through the item.View interface; the seed package
// wires everything together into a database with persistence.
package core

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/consistency"
	"repro/internal/item"
	"repro/internal/schema"
)

// Engine errors.
var (
	ErrUnknownItem     = errors.New("core: unknown item")
	ErrDeleted         = errors.New("core: item is deleted")
	ErrDuplicateName   = errors.New("core: duplicate object name")
	ErrNotIndependent  = errors.New("core: operation requires an independent object")
	ErrNotValueObject  = errors.New("core: object carries no value")
	ErrBadReclassify   = errors.New("core: invalid re-classification")
	ErrPatternConflict = errors.New("core: invalid pattern operation")
	ErrHasInheritors   = errors.New("core: pattern still has inheritors")
	ErrProcMissing     = errors.New("core: attached procedure not registered")
	ErrTxState         = errors.New("core: invalid transaction state")
	ErrSchemaMismatch  = errors.New("core: schema element from foreign schema")
)

// Op classifies a mutation for attached procedures.
type Op uint8

// The mutation kinds reported to attached procedures.
const (
	OpCreate Op = iota + 1
	OpUpdate
	OpDelete
	OpReclassify
)

// String names the op.
func (op Op) String() string {
	switch op {
	case OpCreate:
		return "create"
	case OpUpdate:
		return "update"
	case OpDelete:
		return "delete"
	case OpReclassify:
		return "reclassify"
	}
	return "op"
}

// Event describes one mutation to an attached procedure.
type Event struct {
	Op   Op
	Item item.ID
	Kind item.Kind
	View item.View
}

// Procedure is an attached procedure: registered by name on the engine,
// referenced by name from schema elements, and executed when an item of the
// corresponding schema element is updated. A non-nil error vetoes the
// update (attached procedures express complex integrity constraints).
type Procedure func(Event) error

// Engine is the current database state plus the operational interface.
// It is externally synchronized: the seed database holds its write lock
// around every operation. Several transactions may be staged at once (see
// tx.go); the claim discipline keeps their write sets disjoint, so the
// server can interleave lock-scoped check-ins without a global write gate.
//
// The physical representation of item state is the columnar store
// (colstore.go) and its frozen generations (colfrozen.go). The engine keeps
// the logical bookkeeping — ID allocation, dirt, transactions, procedures.
type Engine struct {
	sch *schema.Schema

	st     *colStore // physical item state; seed:guarded-by(external)
	nextID item.ID   // next ID to allocate; monotonic; seed:guarded-by(external)
	idMark item.ID   // one past the highest published ID; seed:guarded-by(external)

	attrSpecs []item.AttrSpec // registered attribute indexes (in-memory DDL)

	indexCtr map[item.ID]map[string]int // next sub-object index per parent and role

	dirty item.IDSet // items changed since the last version freeze (dense bitset)

	snapDirty map[item.ID]bool // items changed since the last frozen generation

	inheritsLive map[item.ID]bool // live inherits-relationships (rawView lists them)

	procs   map[string]Procedure
	journal func(records [][]byte) error // persistence sink; nil on a follower, in recovery or in memory

	open      map[*Tx]bool       // transactions currently open (BeginTx until CommitTx/RollbackTx)
	one       Tx                 // the one-operation transaction of a mutator called outside a Tx
	curTx     *Tx                // transaction the current operation belongs to
	commitGen uint64             // bumped per commit published while transactions are open
	modGen    map[item.ID]uint64 // last commit generation that changed each item
	nameGen   map[string]uint64  // last commit generation that changed each root name
}

// NewEngine creates an empty engine over a frozen schema.
func NewEngine(sch *schema.Schema) (*Engine, error) {
	if !sch.Frozen() {
		return nil, schema.ErrNotFrozen
	}
	en := &Engine{
		sch:          sch,
		nextID:       1,
		idMark:       1,
		indexCtr:     make(map[item.ID]map[string]int),
		snapDirty:    make(map[item.ID]bool),
		inheritsLive: make(map[item.ID]bool),
		procs:        make(map[string]Procedure),
		open:         make(map[*Tx]bool),
		one:          Tx{touched: make(map[item.ID]bool), names: make(map[string]bool)},
		modGen:       make(map[item.ID]uint64),
		nameGen:      make(map[string]uint64),
	}
	en.st = newColStore(nil)
	return en, nil
}

// Schema returns the engine's current schema.
func (en *Engine) Schema() *schema.Schema { return en.sch }

// SetSchema replaces the schema after an evolution step. The caller (the
// seed database) is responsible for re-validating existing data under the
// new schema and for re-binding item class pointers via RebindSchema.
func (en *Engine) SetSchema(sch *schema.Schema) error {
	if !sch.Frozen() {
		return schema.ErrNotFrozen
	}
	en.sch = sch
	en.invalidateFrozen() // frozen copies bind the old schema's classes
	return nil
}

// RebindSchema re-resolves every item's class or association pointer against
// the current schema. It fails if an item's class no longer exists, which
// makes removing a populated class an invalid schema evolution. Items share
// one interned symbol per class or association name, so it rebinds the
// symbols the rows use and rewrites no row.
func (en *Engine) RebindSchema() error {
	// Class pointers change underneath every frozen copy's index; the next
	// snapshot must rebuild rather than patch.
	en.invalidateFrozen()
	cs := en.st
	objOf := make([]item.ID, len(cs.classBySym)) // a known object per class symbol
	for ord := 0; ord < cs.objLen; ord++ {
		if row := cs.objRows.at(ord); row.id != item.NoID {
			objOf[row.classSym] = row.id
		}
	}
	for sym, id := range objOf {
		if id != item.NoID {
			c, err := en.sch.Class(cs.classBySym[sym].QualifiedName())
			if err != nil {
				return fmt.Errorf("core: object %d: %w", id, err)
			}
			cs.classBySym[sym] = c
		}
	}
	relOf := make([]item.ID, len(cs.assocBySym)) // a known relationship per association symbol
	for ord := 0; ord < cs.relLen; ord++ {
		if row := cs.relRows.at(ord); row.id != item.NoID && row.flags&rowInherits == 0 {
			relOf[row.assocSym] = row.id
		}
	}
	for sym, id := range relOf {
		if id != item.NoID {
			a, err := en.sch.Association(cs.assocBySym[sym].Name())
			if err != nil {
				return fmt.Errorf("core: relationship %d: %w", id, err)
			}
			cs.assocBySym[sym] = a
		}
	}
	return nil
}

// RegisterProcedure registers an attached procedure implementation under a
// name that schema elements reference.
func (en *Engine) RegisterProcedure(name string, p Procedure) {
	en.procs[name] = p
}

// SetJournal installs the persistence sink receiving the encoded records of
// each committed one-operation transaction as one batch. The sink must not
// retain the slice; a sink error rolls the operation back.
func (en *Engine) SetJournal(fn func(records [][]byte) error) { en.journal = fn }

// NextID returns the committed ID high-water mark, one past the highest ID
// a published write set or a restore brought in, which snapshots record. The
// IDs of creations that were refused or rolled back never move it.
func (en *Engine) NextID() item.ID { return en.idMark }

// allocID hands out the next item ID.
func (en *Engine) allocID() item.ID {
	id := en.nextID
	en.nextID++
	return id
}

// View returns the engine's raw view: the live state with deleted items
// hidden and pattern items visible. User-facing retrieval goes through
// pattern.Spliced(engine.View()).
func (en *Engine) View() item.View { return rawView{en} }

// rawView adapts the engine's store to item.View.
type rawView struct{ en *Engine }

func (v rawView) Schema() *schema.Schema { return v.en.sch }

// seed:locked-caller — rawView is a live view; callers hold db.mu and
// must not let it escape the lock (see Engine.View).
func (v rawView) Object(id item.ID) (item.Object, bool) {
	o, ok := v.en.st.object(id)
	if !ok || o.Deleted {
		return item.Object{}, false
	}
	return o, true
}

// seed:locked-caller — live view, accessed under db.mu.
func (v rawView) Relationship(id item.ID) (item.Relationship, bool) {
	r, ok := v.en.st.rel(id)
	if !ok || r.Deleted {
		return item.Relationship{}, false
	}
	return r, true
}

// seed:locked-caller — live view, accessed under db.mu.
func (v rawView) ObjectByName(name string) (item.ID, bool) {
	return v.en.st.lookupName(name)
}

// seed:locked-caller — live view, accessed under db.mu.
func (v rawView) Children(parent item.ID, role string) []item.ID {
	if role != "" {
		return v.en.st.children(parent, role)
	}
	return v.en.st.childrenAll(parent)
}

// seed:locked-caller — live view, accessed under db.mu.
func (v rawView) RelationshipsOf(obj item.ID) []item.ID {
	return v.en.st.relsOf(obj)
}

// seed:locked-caller — live view, accessed under db.mu.
func (v rawView) Objects() []item.ID { return v.en.st.visibleObjects() }

// seed:locked-caller — live view, accessed under db.mu.
func (v rawView) Relationships() []item.ID { return v.en.st.visibleRels() }

// InheritsRelationships implements item.InheritsLister: the live
// inherits-relationships, ascending, as a fresh slice.
//
// seed:locked-caller — live view, accessed under db.mu.
func (v rawView) InheritsRelationships() []item.ID {
	ids := make([]item.ID, 0, len(v.en.inheritsLive))
	for id := range v.en.inheritsLive {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// Object returns a copy of an object's state, including deleted objects
// (deleted items remain addressable for version management).
func (en *Engine) Object(id item.ID) (item.Object, error) {
	o, ok := en.st.object(id)
	if !ok {
		return item.Object{}, fmt.Errorf("%w: object %d", ErrUnknownItem, id)
	}
	return o, nil
}

// Relationship returns a copy of a relationship's state, including deleted
// relationships. Ends is shared immutable data.
func (en *Engine) Relationship(id item.ID) (item.Relationship, error) {
	r, ok := en.st.rel(id)
	if !ok {
		return item.Relationship{}, fmt.Errorf("%w: relationship %d", ErrUnknownItem, id)
	}
	return r, nil
}

// Contains reports whether the engine knows the item (live or deleted).
func (en *Engine) Contains(id item.ID) bool {
	_, ok := en.st.kindOf(id)
	return ok
}

// liveObject fetches a live object's state.
func (en *Engine) liveObject(id item.ID) (item.Object, error) {
	o, ok := en.st.object(id)
	if !ok {
		return item.Object{}, fmt.Errorf("%w: object %d", ErrUnknownItem, id)
	}
	if o.Deleted {
		return item.Object{}, fmt.Errorf("%w: object %d", ErrDeleted, id)
	}
	return o, nil
}

// liveRel fetches a live relationship's state; Ends is shared immutable data.
func (en *Engine) liveRel(id item.ID) (item.Relationship, error) {
	r, ok := en.st.rel(id)
	if !ok {
		return item.Relationship{}, fmt.Errorf("%w: relationship %d", ErrUnknownItem, id)
	}
	if r.Deleted {
		return item.Relationship{}, fmt.Errorf("%w: relationship %d", ErrDeleted, id)
	}
	return r, nil
}

// runProcedures executes the attached procedures of the schema elements a
// mutation touched: the procedures of the mutated item's own class or
// association (including generalization ancestors — a 'Data' update also
// triggers 'Thing' procedures), and the procedures of every containment
// ancestor, because updating a sub-object updates the composed object it
// belongs to. Each procedure sees the item of its own schema element.
func (en *Engine) runProcedures(ev Event) error {
	type target struct {
		names []string
		ev    Event
	}
	var targets []target
	cur, op := ev.Item, ev.Op
	for cur != item.NoID {
		var names []string
		var kind item.Kind
		next := item.NoID
		if o, ok := en.st.object(cur); ok {
			kind = item.KindObject
			for _, c := range o.Class.GeneralizationChain() {
				names = append(names, c.Procedures()...)
			}
			next = o.Parent
		} else if r, ok := en.st.rel(cur); ok {
			kind = item.KindRelationship
			if r.Inherits {
				break
			}
			for _, a := range r.Assoc.GeneralizationChain() {
				names = append(names, a.Procedures()...)
			}
		} else {
			break
		}
		if len(names) > 0 {
			targets = append(targets, target{names: names, ev: Event{Op: op, Item: cur, Kind: kind, View: ev.View}})
		}
		cur, op = next, OpUpdate // ancestors observe an update
	}
	for _, t := range targets {
		for _, name := range t.names {
			p, ok := en.procs[name]
			if !ok {
				return fmt.Errorf("%w: %q", ErrProcMissing, name)
			}
			if err := p(t.ev); err != nil {
				return fmt.Errorf("core: attached procedure %q vetoed %s of %s %d: %w",
					name, t.ev.Op, t.ev.Kind, t.ev.Item, err)
			}
		}
	}
	return nil
}

// validateObjectWithContext re-checks an object after a mutation, together
// with the pattern contexts it participates in.
func (en *Engine) validateObject(id item.ID) error {
	if err := consistency.CheckObject(en.View(), id); err != nil {
		return err
	}
	return en.validatePatternContexts(id)
}

// validateRel re-checks a relationship after a mutation.
func (en *Engine) validateRel(id item.ID) error {
	if err := consistency.CheckRelationship(en.View(), id); err != nil {
		return err
	}
	return en.validatePatternContexts(id)
}
