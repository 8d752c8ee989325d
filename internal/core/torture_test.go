package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/consistency"
	"repro/internal/item"
	"repro/internal/model"
	"repro/internal/schema"
	"repro/internal/value"
)

// The torture matrix (TestTorture_<Category>_<Configuration>): one seeded op
// generator drives the engine through random operations — accepted and
// rejected, one-operation and staged in interleaved transactions, purges and
// whole-state restores — and applies every accepted one to the reference
// model of internal/model, with the IDs the engine allocated. After every op
// the engine's incremental frozen view must equal the model over the whole
// item.View surface, items and names the model no longer has must not
// resolve, a from-scratch rebuild must equal the incremental view, and a
// rejected op must leave the version dirty set alone; concurrent readers walk
// the published generations meanwhile, so -race sees any live slice leaking
// into a frozen one. The final state must also pass a whole-database
// consistency validation.
//
// Every engine maintains a hash and an ordered attribute index
// (tortureAttrSpecs); the comparison covers their lookups too, against the
// postings the model's state yields.
//
// A failure prints the seed and the shortest failing op prefix, found by
// bisecting on prefix length, with the ops of that prefix: rerunning the
// generator from the seed for that many ops replays the failure exactly.

// TestTorture_Differential_Engine: one-operation writes only.
func TestTorture_Differential_Engine(t *testing.T) {
	torture(t, tortureConfig{}, 7, 800, "create", "sub", "value-sub", "set", "relate",
		"inherit", "reclassify", "pattern", "delete", "purge")
}

// TestTorture_Differential_InterleavedTx: up to three transactions staged at
// once beside one-operation writes. Views taken between stagings show the
// model's committed state; a conflict or a rollback leaves the model as it
// was, a commit applies the batch.
func TestTorture_Differential_InterleavedTx(t *testing.T) {
	torture(t, tortureConfig{txs: 3}, 11, 1000, "create", "sub", "relate", "delete",
		"commit", "rollback", "conflict")
}

// TestTorture_Lifecycle_Replay: the batches the engine emits — one per
// one-operation write, one per CommitTx — applied batch by batch to a fresh
// engine must rebuild the same state and the same committed ID mark, across
// whole-state CaptureAll → Restore round trips of the original. About one
// batch in ten is first fed with one record truncated: the replica must
// refuse it whole.
func TestTorture_Lifecycle_Replay(t *testing.T) {
	torture(t, tortureConfig{txs: 1, replay: true}, 1986, 800, "create", "sub", "relate",
		"delete", "purge", "commit", "restore")
}

// TestRandomColumnarVsMapDifferential: the columnar store against the
// map-based reference model over a sweep of seeds, so the differential does
// not rest on the one op sequence of a single seed.
func TestRandomColumnarVsMapDifferential(t *testing.T) {
	for seed := int64(11); seed < 15; seed++ {
		torture(t, tortureConfig{}, seed, 250, "create", "sub", "relate", "delete")
	}
}

// TestFrozenCOWDifferential: published generations are immutable. A
// generation is held across later ops — one-operation and staged alike — and
// must still equal the from-scratch rebuild taken when it was published,
// without relying on -race to notice a write into shared chunks.
func TestFrozenCOWDifferential(t *testing.T) {
	torture(t, tortureConfig{txs: 2, cow: true}, 7, 600, "create", "sub", "set", "relate",
		"delete", "purge", "commit")
}

// TestRandomizedInvariants: every intermediate committed state, not only the
// last, passes the whole-database consistency validation.
func TestRandomizedInvariants(t *testing.T) {
	torture(t, tortureConfig{txs: 2, validate: true}, 1986, 600, "create", "sub", "relate",
		"inherit", "reclassify", "pattern", "delete", "commit")
}

// tortureConfig selects one configuration of the engine.
type tortureConfig struct {
	txs      int  // transactions staged at once; 0 runs one-operation writes only
	replay   bool // feed the emitted batches to a replica; restore the original at random
	cow      bool // hold a published generation and re-check it against its rebuild later
	validate bool // validate the whole state after every op, not only at the end
}

// torture runs the generator for steps ops from seed, requires every op kind
// in kinds to have succeeded at least once, and reports a failure with its
// shortest failing prefix.
func torture(t *testing.T, cfg tortureConfig, seed int64, steps int, kinds ...string) {
	t.Helper()
	g, err := runTorture(cfg, seed, steps)
	if err == nil {
		for _, k := range kinds {
			if g.kinds[k] == 0 {
				t.Errorf("seed %d: the generator never exercised %q (%v)", seed, k, g.kinds)
			}
		}
		return
	}
	lo, hi := 0, len(g.log) // a run of lo ops passes, one of hi ops fails
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if _, err := runTorture(cfg, seed, mid); err != nil {
			hi = mid
		} else {
			lo = mid
		}
	}
	g, err = runTorture(cfg, seed, hi)
	t.Fatalf("seed %d: shortest failing prefix is %d ops: %v\n%s", seed, hi, err, strings.Join(g.log, "\n"))
}

var (
	tortureClasses = []string{"Thing", "Data", "InputData", "OutputData", "Action"}
	tortureAssocs  = []string{"Access", "Read", "Write", "Contained"}
	tortureRoles   = []string{"Description", "Revised", "Text", "Body", "Selector", "Keywords",
		"NumberOfWrites", "ErrorHandling"}
	tortureAttrSpecs = []item.AttrSpec{
		{Key: item.AttrKey{Class: "Data", Path: "Description"}, Kind: item.AttrHash},
		{Key: item.AttrKey{Class: "Data", Path: "Revised"}, Kind: item.AttrOrdered},
	}
)

// torturer is one run of the generator.
type torturer struct {
	cfg     tortureConfig
	rng     *rand.Rand
	en      *Engine
	m       *model.Model
	classes []string       // class names probed through ObjectsOfClass
	views   chan item.View // published generations, for the concurrent readers
	log     []string       // one line per op, for the failure report
	kinds   map[string]int // successful ops per kind, plus conflicts seen

	items []item.ID            // every ID an accepted op produced (may go stale)
	pools map[string][]item.ID // the same, by root class, plus "pattern" and "rel"
	names []string             // every root name ever created

	open    []*stagedTx // open transactions, in begin order
	cur     *stagedTx   // transaction the current op stages into; nil: a one-operation write
	txSeq   int
	applied bool // the current op reached the model (or a staged batch)

	journal  [][][]byte // batches the engine emitted, in log order
	replica  *Engine    // fed the journal batch by batch
	replayed int        // batches fed so far
	corrupt  *rand.Rand // picks the batches first fed with a truncated record

	held, heldWant frozenIndexes // in cow mode: a published generation and its rebuild
	heldAge        int           // checks since held was published
}

// stagedTx is an open transaction with the model ops of its accepted
// operations, applied at commit.
type stagedTx struct {
	id  int
	tx  *Tx
	ops []func(*model.Model)
}

// runTorture runs the generator for steps ops and returns the first
// difference (or panic) it finds.
func runTorture(cfg tortureConfig, seed int64, steps int) (g *torturer, err error) {
	sch := schema.Figure3()
	en := newTortureEngine(sch)
	g = &torturer{cfg: cfg, rng: rand.New(rand.NewSource(seed)), en: en, m: model.New(sch),
		classes: append(sch.ClassNames(), "NoSuchClass"),
		views:   make(chan item.View, 2), // one pending generation per reader; check drops the rest
		kinds:   make(map[string]int), pools: make(map[string][]item.ID)}
	if cfg.replay {
		g.replica = newTortureEngine(sch)
		g.corrupt = rand.New(rand.NewSource(seed))
		en.SetJournal(func(recs [][]byte) error { g.journal = append(g.journal, slices.Clone(recs)); return nil })
	}
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := range g.views {
				walkView(v)
			}
		}()
	}
	defer wg.Wait()
	defer close(g.views)
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	for i := 0; i < steps; i++ {
		if err := g.step(i); err != nil {
			return g, fmt.Errorf("op %d: %w", i, err)
		}
		if err := g.check(); err != nil {
			return g, fmt.Errorf("after op %d: %w", i, err)
		}
	}
	return g, g.finish()
}

// newTortureEngine returns an engine maintaining tortureAttrSpecs.
func newTortureEngine(sch *schema.Schema) *Engine {
	en, _ := NewEngine(sch) // fails only on an unfrozen schema
	for _, spec := range tortureAttrSpecs {
		_ = en.CreateAttrIndex(spec) // the specs name Figure 3 classes and roles
	}
	return en
}

// walkView reads every item of a published generation, as a reader would.
func walkView(v item.View) {
	for _, id := range v.Objects() {
		o, _ := v.Object(id)
		v.Children(id, "")
		v.RelationshipsOf(id)
		if o.Independent() {
			v.ObjectByName(o.Name)
		}
	}
	for _, id := range v.Relationships() {
		v.Relationship(id)
	}
}

// step runs one op: transaction control, a restore, or a mutation in
// a one-operation write or in one of the open transactions.
func (g *torturer) step(i int) error {
	g.cur = nil
	switch {
	case g.cfg.txs > 0 && g.rng.Intn(5) == 0:
		return g.txControl()
	case g.cfg.replay && len(g.open) == 0 && g.rng.Intn(20) == 0:
		objs, rels := g.en.CaptureAll()
		dirty := g.en.DirtyIDs()
		// Restore takes the items in any order; sibling order is the store's.
		g.rng.Shuffle(len(objs), func(i, j int) { objs[i], objs[j] = objs[j], objs[i] })
		g.en.Restore(objs, rels)
		g.en.RestoreDirty(dirty)
		g.m.Restore()
		g.kinds["restore"]++
		g.logf("CaptureAll→Restore (%d objects, %d relationships)", len(objs), len(rels))
		return nil
	}
	if len(g.open) > 0 && g.rng.Intn(4) != 0 {
		g.cur = g.open[g.rng.Intn(len(g.open))]
		g.en.SetActiveTx(g.cur.tx)
		defer g.en.ClearActiveTx()
	}
	g.applied = false
	dirty := g.en.DirtyCount()
	g.mutate(i)
	if !g.applied && g.en.DirtyCount() != dirty {
		return fmt.Errorf("rejected op changed the version dirty set: %d -> %d items", dirty, g.en.DirtyCount())
	}
	return nil
}

// txControl begins a transaction, or commits or rolls back an open one.
func (g *torturer) txControl() error {
	if len(g.open) < g.cfg.txs && (len(g.open) == 0 || g.rng.Intn(2) == 0) {
		// The check after this op freezes before anything stages, pinning a
		// base the way seed.BeginTx does.
		g.txSeq++
		g.open = append(g.open, &stagedTx{id: g.txSeq, tx: g.en.BeginTx()})
		g.logf("BeginTx() = tx%d", g.txSeq)
		return nil
	}
	k := g.rng.Intn(len(g.open))
	st := g.open[k]
	g.open = append(g.open[:k], g.open[k+1:]...)
	if g.rng.Intn(3) == 0 {
		g.logf("RollbackTx(tx%d)", st.id)
		g.kinds["rollback"]++
		return g.en.RollbackTx(st.tx)
	}
	recs, err := g.en.CommitTx(st.tx)
	g.logf("CommitTx(tx%d) = %d records", st.id, len(recs))
	for _, op := range st.ops {
		op(g.m)
	}
	g.journal = append(g.journal, recs)
	g.kinds["commit"]++
	return err
}

// mutate runs one random engine operation and applies it to the model if
// the engine accepted it.
func (g *torturer) mutate(i int) {
	r := g.rng
	switch op := r.Intn(20); {
	case op < 4: // independent object, sometimes a pattern, sometimes a used name
		name := fmt.Sprintf("O%d", i)
		if len(g.names) > 0 && r.Intn(5) == 0 {
			name = g.names[r.Intn(len(g.names))]
		}
		class, pat := tortureClasses[r.Intn(len(tortureClasses))], r.Intn(4) == 0
		create := g.en.CreateObject
		if pat {
			class, create = tortureClasses[r.Intn(2)], g.en.CreatePatternObject // Thing or Data: inheritable
		}
		id, err := create(class, name)
		g.logf("CreateObject(%s, %q, pattern=%v) = %d, %v", class, name, pat, id, err)
		if g.ok("create", err) {
			g.apply(func(m *model.Model) { m.CreateObject(id, class, name, pat) })
			g.items, g.names = append(g.items, id), append(g.names, name)
			pool := class
			if pat {
				pool = "pattern"
			}
			g.pools[pool] = append(g.pools[pool], id)
		}
	case op < 9: // sub-object, half the time with a value if its class carries one
		parent := g.pick()
		switch r.Intn(4) {
		case 0: // siblings in an indexed role (Data.Text)
			parent = g.pickFrom(g.pools[tortureClasses[1+r.Intn(3)]])
		case 1: // relationship attributes
			parent = g.pickFrom(g.pools["rel"])
		}
		role, kind := g.role(parent)
		if kind == value.KindNone || r.Intn(2) == 0 {
			id, err := g.en.CreateSubObject(parent, role)
			g.logf("CreateSubObject(%d, %s) = %d, %v", parent, role, id, err)
			if g.ok("sub", err) {
				g.apply(func(m *model.Model) { m.CreateSubObject(id, parent, role) })
				g.items = append(g.items, id)
			}
			return
		}
		v := g.value(kind)
		id, err := g.en.CreateValueObject(parent, role, v)
		g.logf("CreateValueObject(%d, %s, %v) = %d, %v", parent, role, v, id, err)
		// Refused ⇒ model unchanged: no sub-object, not even a tombstone.
		if g.ok("value-sub", err) {
			g.apply(func(m *model.Model) { m.CreateSubObject(id, parent, role); m.SetValue(id, v) })
			g.items = append(g.items, id)
		}
	case op < 11:
		id := g.pick()
		o, _ := g.en.Object(id)
		k := value.KindNone
		if o.Class != nil {
			k = o.Class.ValueKind()
		}
		v := g.value(k)
		err := g.en.SetValue(id, v)
		g.logf("SetValue(%d, %v) = %v", id, v, err)
		if g.ok("set", err) {
			g.apply(func(m *model.Model) { m.SetValue(id, v) })
		}
	case op < 14: // relationship between class-appropriate ends, now and then not
		assoc := tortureAssocs[r.Intn(len(tortureAssocs))]
		from := map[string]string{"Access": "Data", "Read": "InputData", "Write": "OutputData"}[assoc]
		ends := map[string]item.ID{"from": g.pickFrom(g.pools[from]), "by": g.pickFrom(g.pools["Action"])}
		if assoc == "Contained" {
			ends = map[string]item.ID{"contained": g.pickFrom(g.pools["Action"]), "container": g.pickFrom(g.pools["Action"])}
		}
		if r.Intn(5) == 0 {
			ends["from"] = g.pick()
		}
		id, err := g.en.CreateRelationship(assoc, ends)
		g.logf("CreateRelationship(%s, %v) = %d, %v", assoc, ends, id, err)
		if g.ok("relate", err) {
			g.apply(func(m *model.Model) { m.CreateRelationship(id, assoc, ends) })
			g.items, g.pools["rel"] = append(g.items, id), append(g.pools["rel"], id)
		}
	case op < 15:
		pat, inh := g.pickFrom(g.pools["pattern"]), g.pickFrom(g.pools[tortureClasses[r.Intn(len(tortureClasses))]])
		id, err := g.en.Inherit(pat, inh)
		g.logf("Inherit(%d, %d) = %d, %v", pat, inh, id, err)
		if g.ok("inherit", err) {
			g.apply(func(m *model.Model) { m.Inherit(id, pat, inh) })
			g.items = append(g.items, id)
		}
	case op < 16:
		id, name := g.pick(), tortureClasses[r.Intn(len(tortureClasses))]
		if r.Intn(2) == 0 {
			name = tortureAssocs[r.Intn(len(tortureAssocs))]
		}
		err := g.en.Reclassify(id, name)
		g.logf("Reclassify(%d, %s) = %v", id, name, err)
		if g.ok("reclassify", err) {
			g.apply(func(m *model.Model) { m.Reclassify(id, name) })
		}
	case op < 17:
		id, mark := g.pick(), r.Intn(2) == 0
		setPattern := g.en.ClearPattern
		if mark {
			setPattern = g.en.MarkPattern
		}
		err := setPattern(id)
		g.logf("SetPattern(%d, %v) = %v", id, mark, err)
		if g.ok("pattern", err) {
			g.apply(func(m *model.Model) { m.SetPattern(id, mark) })
		}
	case op < 19:
		id := g.pick()
		err := g.en.Delete(id)
		g.logf("Delete(%d) = %v", id, err)
		if g.ok("delete", err) {
			g.apply(func(m *model.Model) { m.Delete(id) })
		}
	default:
		n, err := g.en.PurgeDeleted(func(item.ID) bool { return false })
		g.logf("PurgeDeleted() = %d, %v", n, err)
		if g.ok("purge", err) {
			g.apply((*model.Model).Purge)
		}
	}
}

// ok counts an op outcome and reports whether the engine accepted it.
func (g *torturer) ok(kind string, err error) bool {
	if errors.Is(err, ErrTxConflict) {
		g.kinds["conflict"]++
	}
	if err != nil {
		return false
	}
	g.kinds[kind]++
	return true
}

// apply applies an accepted op to the model, or stages it with the current
// transaction until it commits.
func (g *torturer) apply(op func(*model.Model)) {
	g.applied = true
	if g.cur != nil {
		g.cur.ops = append(g.cur.ops, op)
		return
	}
	op(g.m)
}

func (g *torturer) logf(format string, args ...any) {
	ctx := "-"
	if g.cur != nil {
		ctx = fmt.Sprintf("tx%d", g.cur.id)
	}
	g.log = append(g.log, fmt.Sprintf("%4d %-4s ", len(g.log), ctx)+fmt.Sprintf(format, args...))
}

// pickFrom picks from a pool, half the time among its eight newest entries,
// so operations pile up on a few items: siblings, conflicts and cascades.
// Dead items (deleted, purged, rolled back) are re-drawn up to three times.
func (g *torturer) pickFrom(pool []item.ID) item.ID {
	n := len(pool)
	if n == 0 {
		return item.NoID
	}
	for try := 0; ; try++ {
		id := pool[g.rng.Intn(n)]
		if n > 8 && g.rng.Intn(2) == 0 {
			id = pool[n-1-g.rng.Intn(8)]
		}
		_, obj := g.en.View().Object(id)
		_, rel := g.en.View().Relationship(id)
		if obj || rel || try == 3 {
			return id
		}
	}
}

func (g *torturer) pick() item.ID { return g.pickFrom(g.items) }

// role picks a sub-object role for parent, three times in four one its class
// or association defines, and the value kind that role's class carries.
func (g *torturer) role(parent item.ID) (string, value.Kind) {
	var defined []*schema.Class
	if o, ok := g.en.View().Object(parent); ok {
		defined = o.Class.AllChildren()
	} else if r, ok := g.en.View().Relationship(parent); ok && !r.Inherits {
		defined = r.Assoc.Children()
	}
	if len(defined) == 0 || g.rng.Intn(4) == 0 {
		return tortureRoles[g.rng.Intn(len(tortureRoles))], value.KindNone
	}
	c := defined[g.rng.Intn(len(defined))]
	return c.Name(), c.ValueKind()
}

// value returns a random value, three times in four of kind k (of any kind
// for KindNone); string values straddle valInternMax.
func (g *torturer) value(k value.Kind) value.Value {
	n := g.rng.Intn(5)
	if k == value.KindNone || g.rng.Intn(4) == 0 {
		k = value.Kind(g.rng.Intn(int(value.KindDate) + 1))
	}
	switch k {
	case value.KindString:
		if n%2 == 0 {
			return value.NewString(fmt.Sprintf("long-%060d", n))
		}
		return value.NewString(fmt.Sprintf("s%d", n))
	case value.KindInteger:
		return value.NewInteger(int64(n))
	case value.KindReal:
		return value.NewReal(float64(n) / 2)
	case value.KindBoolean:
		return value.NewBoolean(n%2 == 0)
	case value.KindDate:
		return value.NewDate(time.Date(2026, 1, 1+n, 0, 0, 0, 0, time.UTC))
	}
	return value.Undefined
}

// check compares the engine against the model (and the replica against the
// engine) after an op, then publishes the generation to the readers.
func (g *torturer) check() error {
	got := g.en.FrozenView().(frozenIndexes)
	if err := viewsDiff(got, g.m, g.classes); err != nil {
		return fmt.Errorf("frozen view vs model: %w", err)
	}
	if err := goneDiff(got, g.m, g.items, g.names); err != nil {
		return fmt.Errorf("frozen view vs model: %w", err)
	}
	if g.held != nil {
		g.heldAge++
		if err := viewsDiff(g.held, g.heldWant, g.classes); err != nil {
			return fmt.Errorf("generation published %d checks ago has changed: %w", g.heldAge, err)
		}
	}
	if len(g.open) == 0 { // a rebuild reads the live store, staged rows included
		rebuilt := g.en.FrozenViewRebuild().(frozenIndexes)
		if err := viewsDiff(rebuilt, got, g.classes); err != nil {
			return fmt.Errorf("rebuild vs frozen view: %w", err)
		}
		live := g.en.View().(item.InheritsLister).InheritsRelationships()
		if want := g.m.InheritsRelationships(); !slices.Equal(live, want) {
			return fmt.Errorf("live InheritsRelationships() = %v, want %v", live, want)
		}
		if g.cfg.cow && (g.held == nil || g.heldAge >= 16) {
			g.held, g.heldWant, g.heldAge = got, rebuilt, 0
		}
	}
	if g.cfg.validate {
		if err := validate(got); err != nil {
			return err
		}
	}
	if g.replica != nil {
		for ; g.replayed < len(g.journal); g.replayed++ {
			batch := g.journal[g.replayed]
			if len(batch) > 0 && g.corrupt.Intn(10) == 0 {
				if err := g.refuseTruncated(batch); err != nil {
					return fmt.Errorf("batch %d: %w", g.replayed, err)
				}
			}
			if err := g.replica.ApplyRecords(batch); err != nil {
				return fmt.Errorf("replaying batch %d: %w", g.replayed, err)
			}
		}
		if err := viewsDiff(g.replica.FrozenView().(frozenIndexes), got, g.classes); err != nil {
			return fmt.Errorf("replica vs frozen view: %w", err)
		}
		if r, e := g.replica.NextID(), g.en.NextID(); r != e {
			return fmt.Errorf("replica NextID() = %d, engine %d", r, e)
		}
	}
	select {
	case g.views <- got:
	default:
	}
	return nil
}

// refuseTruncated feeds the replica a copy of batch with one record cut
// short. The replica must refuse the batch with ErrBadRecord and keep its
// frozen view and committed ID mark.
func (g *torturer) refuseTruncated(batch [][]byte) error {
	bad := slices.Clone(batch)
	k := g.corrupt.Intn(len(bad))
	bad[k] = bad[k][:g.corrupt.Intn(len(bad[k]))]
	before, next := g.replica.FrozenView().(frozenIndexes), g.replica.NextID()
	if err := g.replica.ApplyRecords(bad); !errors.Is(err, ErrBadRecord) {
		return fmt.Errorf("record %d of %d cut to %d bytes: got %v, want ErrBadRecord", k, len(bad), len(bad[k]), err)
	}
	if err := viewsDiff(g.replica.FrozenView().(frozenIndexes), before, g.classes); err != nil {
		return fmt.Errorf("refused batch changed the replica: %w", err)
	}
	if g.replica.NextID() != next {
		return fmt.Errorf("refused batch moved NextID() from %d to %d", next, g.replica.NextID())
	}
	return nil
}

// finish rolls back the transactions still open, re-checks, and validates
// the final state as a whole: the eager per-op checks must have kept it
// consistent.
func (g *torturer) finish() error {
	for _, st := range g.open {
		if err := g.en.RollbackTx(st.tx); err != nil {
			return err
		}
	}
	g.open = nil
	if err := g.check(); err != nil {
		return fmt.Errorf("after the final rollbacks: %w", err)
	}
	if err := validate(g.en.FrozenView()); err != nil {
		return fmt.Errorf("final state: %w", err)
	}
	return nil
}

// validate runs the whole-database consistency validation over a view.
func validate(v item.View) error {
	for _, id := range v.Objects() {
		if err := consistency.CheckObject(v, id); err != nil {
			return fmt.Errorf("object %d: %w", id, err)
		}
	}
	for _, id := range v.Relationships() {
		if err := consistency.CheckRelationship(v, id); err != nil {
			return fmt.Errorf("relationship %d: %w", id, err)
		}
	}
	return nil
}

// frozenIndexes is the surface the frozen views and the model implement on
// top of item.View.
type frozenIndexes interface {
	item.View
	ObjectsOfClass(string) ([]item.ID, bool)
	InheritsRelationships() []item.ID
	PatternFree() bool
}

// viewsDiff compares two views over their complete observable surface,
// taking candidate IDs and names from want, and describes the first
// difference.
func viewsDiff(got, want frozenIndexes, classNames []string) error {
	var diff error
	ids := func(g, w []item.ID, format string, args ...any) {
		if diff == nil && !slices.Equal(g, w) {
			diff = fmt.Errorf(format+" = %v, want %v", append(args, g, w)...)
		}
	}
	ids(got.Objects(), want.Objects(), "Objects()")
	ids(got.Relationships(), want.Relationships(), "Relationships()")
	ids(got.InheritsRelationships(), want.InheritsRelationships(), "InheritsRelationships()")
	if g, w := got.PatternFree(), want.PatternFree(); diff == nil && g != w {
		diff = fmt.Errorf("PatternFree() = %v, want %v", g, w)
	}
	for _, name := range classNames {
		gids, gok := got.ObjectsOfClass(name)
		wids, _ := want.ObjectsOfClass(name)
		ids(gids, wids, "ObjectsOfClass(%q) (indexed %v)", name, gok)
	}
	for _, id := range want.Objects() {
		g, gok := got.Object(id)
		w, _ := want.Object(id)
		if diff == nil && (!gok || !reflect.DeepEqual(g, w)) {
			diff = fmt.Errorf("Object(%d) = %+v (%v), want %+v", id, g, gok, w)
		}
		if gid, ok := got.ObjectByName(w.Name); diff == nil && w.Independent() && (!ok || gid != id) {
			diff = fmt.Errorf("ObjectByName(%q) = %d (%v), want %d", w.Name, gid, ok, id)
		}
		ids(got.RelationshipsOf(id), want.RelationshipsOf(id), "RelationshipsOf(%d)", id)
	}
	for _, id := range want.Relationships() {
		g, gok := got.Relationship(id)
		w, _ := want.Relationship(id)
		if diff == nil && (!gok || !reflect.DeepEqual(g, w)) {
			diff = fmt.Errorf("Relationship(%d) = %+v (%v), want %+v", id, g, gok, w)
		}
	}
	for _, id := range slices.Concat(want.Objects(), want.Relationships()) {
		kids, role := want.Children(id, ""), ""
		ids(got.Children(id, ""), kids, "Children(%d, \"\")", id)
		for _, ch := range kids {
			if o, _ := want.Object(ch); o.Role != role {
				role = o.Role
				ids(got.Children(id, role), want.Children(id, role), "Children(%d, %q)", id, role)
			}
		}
	}
	if id, ok := got.ObjectByName("no-such-object"); diff == nil && ok {
		diff = fmt.Errorf("ObjectByName resolves a name that never existed to %d", id)
	}
	if diff == nil {
		diff = attrsDiff(got, want)
	}
	return diff
}

// attrsDiff checks got's attribute indexes against the postings want's
// state yields (item.AttrPostingsOf over want's class extent), and want's
// own indexes, when it keeps them, against the same postings.
func attrsDiff(got, want frozenIndexes) error {
	for _, spec := range tortureAttrSpecs {
		roles, _ := item.SplitAttrPath(spec.Key.Path)
		roots, _ := want.ObjectsOfClass(spec.Key.Class)
		var posts []item.AttrPosting
		for _, root := range roots {
			posts = append(posts, item.AttrPostingsOf(want, root, roles)...)
		}
		for side, v := range map[string]frozenIndexes{"got": got, "want": want} {
			av, ok := v.(item.AttrIndexedView)
			if !ok && side == "want" {
				continue // the model keeps no indexes
			}
			var x *item.AttrIdx
			if ok {
				x, ok = av.AttrIndex(spec.Key)
			}
			if !ok || x == nil || x.Kind() != spec.Kind {
				return fmt.Errorf("%s view lost the %s index on %s", side, spec.Kind, spec.Key)
			}
			if err := attrIdxDiff(x, posts); err != nil {
				return fmt.Errorf("%s AttrIndex(%s): %w", side, spec.Key, err)
			}
		}
	}
	return nil
}

// attrIdxDiff compares an index with the postings it should hold: Len, Eq
// and EstEq for every value present and one absent, and, on an ordered
// index, Range and EstRange over bounds drawn from the values present.
func attrIdxDiff(x *item.AttrIdx, posts []item.AttrPosting) error {
	type entry struct {
		val string
		id  item.ID
	}
	seen := make(map[entry]bool)
	var vals []value.Value
	var uniq []item.AttrPosting
	for _, p := range posts {
		e := entry{p.Val.Kind().String() + ":" + p.Val.String(), p.ID}
		if seen[e] {
			continue
		}
		seen[e] = true
		uniq = append(uniq, p)
		if !slices.ContainsFunc(vals, p.Val.Equal) {
			vals = append(vals, p.Val)
		}
	}
	if x.Len() != len(uniq) {
		return fmt.Errorf("Len() = %d, want %d", x.Len(), len(uniq))
	}
	// match lists the distinct roots of the postings in, ascending, and
	// counts those postings.
	match := func(in func(value.Value) bool) ([]item.ID, int) {
		var ids []item.ID
		n := 0
		for _, p := range uniq {
			if in(p.Val) {
				ids = append(ids, p.ID)
				n++
			}
		}
		slices.Sort(ids)
		return slices.Compact(ids), n
	}
	for _, v := range append(vals, value.NewString("absent")) {
		want, n := match(v.Matches)
		if got := x.Eq(v); !slices.Equal(got, want) {
			return fmt.Errorf("Eq(%v) = %v, want %v", v, got, want)
		}
		if got := x.EstEq(v); got != n {
			return fmt.Errorf("EstEq(%v) = %d, want %d", v, got, n)
		}
	}
	bounds := []value.Value{value.Undefined}
	for i := 0; i < len(vals) && i < 4; i++ {
		bounds = append(bounds, vals[i])
	}
	for _, lo := range bounds {
		for _, hi := range bounds {
			for _, incl := range []bool{false, true} {
				got, ok := x.Range(lo, hi, incl, !incl)
				est, estOK := x.EstRange(lo, hi, incl, !incl)
				if wantOK := x.Kind() == item.AttrOrdered && (lo.IsDefined() || hi.IsDefined()); ok != wantOK || estOK != wantOK {
					return fmt.Errorf("Range(%v, %v) answered %v, EstRange %v, want %v", lo, hi, ok, estOK, wantOK)
				}
				if !ok {
					continue
				}
				want, n := match(func(v value.Value) bool {
					return inBound(v, lo, incl, 1) && inBound(v, hi, !incl, -1)
				})
				if !slices.Equal(got, want) || est != n {
					return fmt.Errorf("Range(%v, %v, %v, %v) = %v (est %d), want %v (est %d)", lo, hi, incl, !incl, got, est, want, n)
				}
			}
		}
	}
	return nil
}

// inBound reports whether v lies on the inner side of bound: at or above a
// lower bound (side 1), at or below an upper one (side -1), the bound itself
// only when incl. An undefined bound is open; values the bound cannot be
// compared with (another kind, booleans) lie outside.
func inBound(v, bound value.Value, incl bool, side int) bool {
	if !bound.IsDefined() {
		return true
	}
	c, err := v.Compare(bound)
	return err == nil && (c*side > 0 || c == 0 && incl)
}

// goneDiff probes what want no longer has: every ID and name the workload
// ever produced that want does not resolve must not resolve in got either —
// a membership-only patch that forgets to unbind a name or drop an item
// would otherwise hide behind equal ID lists.
func goneDiff(got, want frozenIndexes, ids []item.ID, names []string) error {
	live, liveNames := make(map[item.ID]bool), make(map[string]bool)
	for _, id := range slices.Concat(want.Objects(), want.Relationships()) {
		live[id] = true
		if o, ok := want.Object(id); ok && o.Independent() {
			liveNames[o.Name] = true
		}
	}
	for _, id := range ids {
		if live[id] {
			continue
		}
		if _, ok := got.Object(id); ok {
			return fmt.Errorf("gone object %d still resolves", id)
		}
		if _, ok := got.Relationship(id); ok {
			return fmt.Errorf("gone relationship %d still resolves", id)
		}
		if kids := got.Children(id, ""); kids != nil {
			return fmt.Errorf("gone item %d still lists children %v", id, kids)
		}
	}
	for _, name := range names {
		if id, ok := got.ObjectByName(name); ok && !liveNames[name] {
			return fmt.Errorf("gone name %q still resolves to %d", name, id)
		}
	}
	return nil
}
