package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/item"
	"repro/internal/value"
)

// Differential test between the two store representations: a columnar
// engine and a map-backed engine driven by one randomized workload must be
// observably identical after every operation — same success/failure, same
// allocated IDs, same frozen-view surface. Run under -race (the CI stress
// step does), the concurrent readers additionally enforce that columnar
// frozen generations are immutable shared data. The workload also flips the
// columnar engine through SetColumnarStore round-trips, so the live
// migration path is diffed too.

// TestRandomColumnarVsMapDifferential drives a columnar and a map-backed
// engine in lockstep and diffs their complete view surface every step.
func TestRandomColumnarVsMapDifferential(t *testing.T) {
	col := newFig3(t)
	mp := newFig3(t)
	if err := mp.SetColumnarStore(false); err != nil {
		t.Fatal(err)
	}
	if !col.ColumnarStore() || mp.ColumnarStore() {
		t.Fatal("engines not in the intended representations")
	}
	engines := []*Engine{col, mp}
	rng := rand.New(rand.NewSource(11))
	classNames := append(col.Schema().ClassNames(), "NoSuchClass")

	views := make(chan item.View, 64)
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := range views {
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
		}()
	}

	// both applies one operation to both engines and checks they agree on
	// the outcome; the shared ID sequence keeps later picks aligned.
	both := func(step int, op func(en *Engine) (item.ID, error)) (item.ID, bool) {
		id0, err0 := op(col)
		id1, err1 := op(mp)
		if (err0 == nil) != (err1 == nil) {
			t.Fatalf("step %d: outcome diverged: columnar err=%v, map err=%v", step, err0, err1)
		}
		if id0 != id1 {
			t.Fatalf("step %d: allocated IDs diverged: columnar %d, map %d", step, id0, id1)
		}
		return id0, err0 == nil
	}

	var live []item.ID
	var names []string
	pick := func() item.ID {
		if len(live) == 0 {
			return item.NoID
		}
		return live[rng.Intn(len(live))]
	}
	var dataPool, actionPool, patternPool []item.ID
	pickFrom := func(pool []item.ID) item.ID {
		if len(pool) == 0 {
			return item.NoID
		}
		return pool[rng.Intn(len(pool))]
	}
	classify := func(id item.ID, class string, pat bool) {
		live = append(live, id)
		if pat {
			patternPool = append(patternPool, id)
			return
		}
		switch class {
		case "Data", "InputData", "OutputData":
			dataPool = append(dataPool, id)
		case "Action":
			actionPool = append(actionPool, id)
		}
	}
	classes := []string{"Thing", "Data", "InputData", "OutputData", "Action"}
	roles := []string{"Description", "Revised", "Text", "Body", "Selector", "Keywords",
		"NumberOfWrites", "ErrorHandling"}
	assocs := []string{"Access", "Read", "Write", "Contained"}
	randValue := func() value.Value {
		switch rng.Intn(4) {
		case 0:
			return value.Undefined
		case 1:
			// Straddle valInternMax: both interned and long string values.
			if rng.Intn(2) == 0 {
				return value.NewString(fmt.Sprintf("s%d", rng.Intn(5)))
			}
			return value.NewString(fmt.Sprintf("long-%060d", rng.Intn(5)))
		case 2:
			return value.NewInteger(int64(rng.Intn(100)))
		default:
			return value.NewBoolean(rng.Intn(2) == 0)
		}
	}

	const steps = 300
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(21); {
		case op < 4: // independent object, sometimes a pattern
			name := fmt.Sprintf("O%d", step)
			class := classes[rng.Intn(len(classes))]
			pat := rng.Intn(4) == 0
			id, ok := both(step, func(en *Engine) (item.ID, error) {
				if pat {
					return en.CreatePatternObject(class, name)
				}
				return en.CreateObject(class, name)
			})
			if ok {
				classify(id, class, pat)
				names = append(names, name)
			}
		case op < 8: // sub-object, half the time with a value
			parent := pick()
			role := roles[rng.Intn(len(roles))]
			withVal := rng.Intn(2) == 0
			v := randValue()
			if id, ok := both(step, func(en *Engine) (item.ID, error) {
				if withVal {
					return en.CreateValueObject(parent, role, v)
				}
				return en.CreateSubObject(parent, role)
			}); ok {
				live = append(live, id)
			}
		case op < 10: // value update (often fails on non-value objects)
			id, v := pick(), randValue()
			both(step, func(en *Engine) (item.ID, error) { return item.NoID, en.SetValue(id, v) })
		case op < 13: // relationship between class-appropriate ends
			a := assocs[rng.Intn(len(assocs))]
			ends := map[string]item.ID{"from": pickFrom(dataPool), "by": pickFrom(actionPool)}
			if a == "Contained" {
				ends = map[string]item.ID{
					"contained": pickFrom(actionPool), "container": pickFrom(actionPool)}
			}
			if rng.Intn(5) == 0 {
				ends["from"] = pick()
			}
			if id, ok := both(step, func(en *Engine) (item.ID, error) {
				return en.CreateRelationship(a, ends)
			}); ok {
				live = append(live, id)
			}
		case op < 14: // inherit a pattern
			inh := pickFrom(dataPool)
			if rng.Intn(2) == 0 {
				inh = pickFrom(actionPool)
			}
			pat := pickFrom(patternPool)
			if id, ok := both(step, func(en *Engine) (item.ID, error) {
				return en.Inherit(pat, inh)
			}); ok {
				live = append(live, id)
			}
		case op < 15:
			id, class := pick(), classes[rng.Intn(len(classes))]
			both(step, func(en *Engine) (item.ID, error) { return item.NoID, en.Reclassify(id, class) })
		case op < 16:
			id, mark := pick(), rng.Intn(2) == 0
			both(step, func(en *Engine) (item.ID, error) {
				if mark {
					return item.NoID, en.MarkPattern(id)
				}
				return item.NoID, en.ClearPattern(id)
			})
		case op < 18:
			id := pick()
			both(step, func(en *Engine) (item.ID, error) { return item.NoID, en.Delete(id) })
		case op < 19: // transaction batch, committed or rolled back
			var txs []*Tx
			for _, en := range engines {
				tx := en.BeginTx()
				en.SetActiveTx(tx)
				txs = append(txs, tx)
			}
			for i := 0; i < rng.Intn(4); i++ {
				name := fmt.Sprintf("T%d-%d", step, i)
				class := classes[rng.Intn(len(classes))]
				if id, ok := both(step, func(en *Engine) (item.ID, error) {
					return en.CreateObject(class, name)
				}); ok {
					live = append(live, id)
					names = append(names, name)
				}
				id, v := pick(), randValue()
				both(step, func(en *Engine) (item.ID, error) { return item.NoID, en.SetValue(id, v) })
			}
			roll := rng.Intn(3) == 0
			for i, en := range engines {
				if roll {
					_ = en.RollbackTx(txs[i])
				} else {
					_, _ = en.CommitTx(txs[i])
				}
			}
		case op < 20: // physically purge everything purgeable
			both(step, func(en *Engine) (item.ID, error) {
				_, err := en.PurgeDeleted(func(item.ID) bool { return false })
				return item.NoID, err
			})
		default: // migrate the columnar engine out and back in
			if err := col.SetColumnarStore(false); err != nil {
				t.Fatalf("step %d: migrate to map: %v", step, err)
			}
			if err := col.SetColumnarStore(true); err != nil {
				t.Fatalf("step %d: migrate to columnar: %v", step, err)
			}
			if !col.ColumnarStore() {
				t.Fatalf("step %d: round-trip left the map store active", step)
			}
		}
		if col.InTx() || mp.InTx() {
			continue
		}
		gotCol := col.FrozenView().(frozenIndexes)
		gotMap := mp.FrozenView().(frozenIndexes)
		// The map engine is the oracle for the columnar engine, and each
		// engine's incremental view must match its own rebuild.
		assertViewsEqual(t, step, gotCol, gotMap, classNames)
		assertViewsEqual(t, step, gotCol, col.FrozenViewRebuild().(frozenIndexes), classNames)
		assertGone(t, step, gotCol, gotMap, live, names)
		select {
		case views <- gotCol:
		default:
		}
	}
	close(views)
	wg.Wait()

	st := col.Stats()
	if st.Objects == 0 || st.Relationships == 0 {
		t.Fatalf("workload too shallow to be meaningful: %+v", st)
	}
}
