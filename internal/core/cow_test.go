package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/item"
	"repro/internal/value"
)

// Differential test for the copy-on-write snapshot path: after every
// operation of a randomized workload, the incrementally patched FrozenView
// must be indistinguishable — item by item, index by index — from a frozen
// view rebuilt from scratch. Run under -race (the CI stress step does), the
// concurrent readers below additionally enforce the shared-slice
// immutability contract: any live engine slice leaking into a frozen
// generation shows up as a data race with later mutations.

// frozenIndexes is the extended surface the frozen views implement on top
// of item.View.
type frozenIndexes interface {
	item.View
	ObjectsOfClass(string) ([]item.ID, bool)
	InheritsRelationships() []item.ID
}

// assertViewsEqual compares two views over their complete observable
// surface, using the rebuilt view as the source of candidate IDs and names.
func assertViewsEqual(t *testing.T, step int, got, want frozenIndexes, classNames []string) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Fatalf("step %d: %s", step, fmt.Sprintf(format, args...))
	}
	if !reflect.DeepEqual(got.Objects(), want.Objects()) {
		fail("Objects() = %v, want %v", got.Objects(), want.Objects())
	}
	if !reflect.DeepEqual(got.Relationships(), want.Relationships()) {
		fail("Relationships() = %v, want %v", got.Relationships(), want.Relationships())
	}
	if !reflect.DeepEqual(got.InheritsRelationships(), want.InheritsRelationships()) {
		fail("InheritsRelationships() = %v, want %v",
			got.InheritsRelationships(), want.InheritsRelationships())
	}
	for _, id := range want.Objects() {
		go_, gok := got.Object(id)
		wo, _ := want.Object(id)
		if !gok || !reflect.DeepEqual(go_, wo) {
			fail("Object(%d) = %+v (%v), want %+v", id, go_, gok, wo)
		}
		if wo.Independent() {
			gid, gok := got.ObjectByName(wo.Name)
			if !gok || gid != id {
				fail("ObjectByName(%q) = %d (%v), want %d", wo.Name, gid, gok, id)
			}
		}
		if !reflect.DeepEqual(got.RelationshipsOf(id), want.RelationshipsOf(id)) {
			fail("RelationshipsOf(%d) = %v, want %v",
				id, got.RelationshipsOf(id), want.RelationshipsOf(id))
		}
		if !reflect.DeepEqual(got.Children(id, ""), want.Children(id, "")) {
			fail("Children(%d, \"\") = %v, want %v",
				id, got.Children(id, ""), want.Children(id, ""))
		}
		for _, ch := range want.Children(id, "") {
			co, _ := want.Object(ch)
			if !reflect.DeepEqual(got.Children(id, co.Role), want.Children(id, co.Role)) {
				fail("Children(%d, %q) = %v, want %v",
					id, co.Role, got.Children(id, co.Role), want.Children(id, co.Role))
			}
		}
	}
	for _, id := range want.Relationships() {
		gr, gok := got.Relationship(id)
		wr, _ := want.Relationship(id)
		if !gok || !reflect.DeepEqual(gr, wr) {
			fail("Relationship(%d) = %+v (%v), want %+v", id, gr, gok, wr)
		}
		if !reflect.DeepEqual(got.Children(id, ""), want.Children(id, "")) {
			fail("rel Children(%d, \"\") = %v, want %v",
				id, got.Children(id, ""), want.Children(id, ""))
		}
	}
	for _, name := range classNames {
		gids, gok := got.ObjectsOfClass(name)
		wids, wok := want.ObjectsOfClass(name)
		if !gok || !wok || !reflect.DeepEqual(gids, wids) {
			fail("ObjectsOfClass(%q) = %v (%v), want %v (%v)", name, gids, gok, wids, wok)
		}
	}
	if _, ok := got.ObjectByName("no-such-object"); ok {
		fail("ObjectByName resolves a name that never existed")
	}
}

// assertGone probes the overlay tombstones directly: every ID and name the
// workload ever produced that the rebuilt view no longer resolves must also
// fail through the incremental chain — a membership-only patch that forgets
// the nil/NoID overlay entry would otherwise resolve deleted items through
// an older generation while Objects() still compares equal.
func assertGone(t *testing.T, step int, got, want frozenIndexes, ids []item.ID, names []string) {
	t.Helper()
	liveSet := make(map[item.ID]bool)
	for _, id := range want.Objects() {
		liveSet[id] = true
	}
	for _, id := range want.Relationships() {
		liveSet[id] = true
	}
	for _, id := range ids {
		if liveSet[id] {
			continue
		}
		if _, ok := got.Object(id); ok {
			t.Fatalf("step %d: gone object %d still resolves incrementally", step, id)
		}
		if _, ok := got.Relationship(id); ok {
			t.Fatalf("step %d: gone relationship %d still resolves incrementally", step, id)
		}
		if got.Children(id, "") != nil {
			t.Fatalf("step %d: gone item %d still lists children", step, id)
		}
	}
	for _, name := range names {
		if _, ok := want.ObjectByName(name); ok {
			continue
		}
		if id, ok := got.ObjectByName(name); ok {
			t.Fatalf("step %d: gone name %q still resolves to %d incrementally", step, name, id)
		}
	}
}

// TestFrozenCOWDifferential drives a randomized mutation workload and
// checks, after every single operation (including failed ones that rolled
// back, transactions, version-style purges, and pattern churn), that the
// incremental snapshot equals a from-scratch rebuild. Concurrent readers
// walk every published generation while the writer keeps mutating, so -race
// verifies the frozen generations are truly immutable shared data.
func TestFrozenCOWDifferential(t *testing.T) {
	en := newFig3(t)
	rng := rand.New(rand.NewSource(7))
	classNames := append(en.Schema().ClassNames(), "NoSuchClass")

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

	var live []item.ID // item pool the workload picks from (may contain stale IDs)
	var names []string // every independent-object name ever created
	pick := func() item.ID {
		if len(live) == 0 {
			return item.NoID
		}
		return live[rng.Intn(len(live))]
	}
	// Class-aware pools so relationship creation regularly passes the
	// membership rules (picks may still be stale after deletes — fine).
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
		switch rng.Intn(3) {
		case 0:
			return value.Undefined
		case 1:
			return value.NewString(fmt.Sprintf("s%d", rng.Intn(5)))
		default:
			return value.NewInteger(int64(rng.Intn(100)))
		}
	}

	const steps = 350
	maxInherits := 0
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(20); {
		case op < 4: // independent object, sometimes a pattern
			name := fmt.Sprintf("O%d", step)
			class := classes[rng.Intn(len(classes))]
			pat := rng.Intn(4) == 0
			var id item.ID
			var err error
			if pat {
				id, err = en.CreatePatternObject(class, name)
			} else {
				id, err = en.CreateObject(class, name)
			}
			if err == nil {
				classify(id, class, pat)
				names = append(names, name)
			}
		case op < 8: // sub-object, half the time with a value
			parent := pick()
			role := roles[rng.Intn(len(roles))]
			var id item.ID
			var err error
			if rng.Intn(2) == 0 {
				id, err = en.CreateValueObject(parent, role, randValue())
			} else {
				id, err = en.CreateSubObject(parent, role)
			}
			if err == nil {
				live = append(live, id)
			}
		case op < 10: // value update (often fails on non-value objects)
			_ = en.SetValue(pick(), randValue())
		case op < 13: // relationship between class-appropriate ends
			a := assocs[rng.Intn(len(assocs))]
			ends := map[string]item.ID{"from": pickFrom(dataPool), "by": pickFrom(actionPool)}
			if a == "Contained" {
				ends = map[string]item.ID{
					"contained": pickFrom(actionPool), "container": pickFrom(actionPool)}
			}
			if rng.Intn(5) == 0 { // keep exercising the rejection paths too
				ends["from"] = pick()
			}
			if id, err := en.CreateRelationship(a, ends); err == nil {
				live = append(live, id)
			}
		case op < 14: // inherit a pattern
			inh := pickFrom(dataPool)
			if rng.Intn(2) == 0 {
				inh = pickFrom(actionPool)
			}
			if id, err := en.Inherit(pickFrom(patternPool), inh); err == nil {
				live = append(live, id)
			}
		case op < 15:
			_ = en.Reclassify(pick(), classes[rng.Intn(len(classes))])
		case op < 16:
			if rng.Intn(2) == 0 {
				_ = en.MarkPattern(pick())
			} else {
				_ = en.ClearPattern(pick())
			}
		case op < 18:
			_ = en.Delete(pick())
		case op < 19: // transaction batch, committed or rolled back
			tx := en.BeginTx()
			en.SetActiveTx(tx)
			for i := 0; i < rng.Intn(4); i++ {
				name := fmt.Sprintf("T%d-%d", step, i)
				if id, err := en.CreateObject(classes[rng.Intn(len(classes))], name); err == nil {
					live = append(live, id)
					names = append(names, name)
				}
				_ = en.SetValue(pick(), randValue())
			}
			if rng.Intn(3) == 0 {
				_ = en.RollbackTx(tx)
			} else {
				_, _ = en.CommitTx(tx)
			}
		default: // physically purge everything purgeable
			if _, err := en.PurgeDeleted(func(item.ID) bool { return false }); err != nil {
				t.Fatalf("step %d: purge: %v", step, err)
			}
		}
		if en.InTx() {
			continue // FrozenView contract: only between committed operations
		}
		got := en.FrozenView().(frozenIndexes)
		want := en.FrozenViewRebuild().(frozenIndexes)
		assertViewsEqual(t, step, got, want, classNames)
		assertGone(t, step, got, want, live, names)
		if n := len(got.InheritsRelationships()); n > maxInherits {
			maxInherits = n
		}
		select {
		case views <- got:
		default:
		}
	}
	close(views)
	wg.Wait()

	st := en.Stats()
	if st.Objects == 0 || st.Relationships == 0 || maxInherits == 0 {
		t.Fatalf("workload too shallow to be meaningful: %+v (max inherits %d)", st, maxInherits)
	}
}

// TestFrozenSharedGeneration: freezing twice without a mutation in between
// returns the same generation; a mutation produces a fresh one that leaves
// the old generation untouched.
func TestFrozenSharedGeneration(t *testing.T) {
	en := newFig3(t)
	a := mustCreate(t, en, "Data", "A")
	v1 := en.FrozenView()
	if v2 := en.FrozenView(); v2 != v1 {
		t.Error("unchanged engine produced a new frozen generation")
	}
	d, err := en.CreateValueObject(a, "Description", value.NewString("x"))
	if err != nil {
		t.Fatal(err)
	}
	v3 := en.FrozenView()
	if v3 == v1 {
		t.Fatal("mutation did not produce a new frozen generation")
	}
	if _, ok := v1.Object(d); ok {
		t.Error("old generation sees an object created after it froze")
	}
	if o, ok := v3.Object(d); !ok || o.Value.Str() != "x" {
		t.Errorf("new generation Object(%d) = %+v, %v", d, o, ok)
	}
}

// TestFrozenCOWAblation: with COW disabled every freeze is a rebuild, and
// re-enabling starts cleanly from a full build.
func TestFrozenCOWAblation(t *testing.T) {
	en := newFig3(t)
	mustCreate(t, en, "Data", "A")
	en.SetSnapshotCOW(false)
	v1 := en.FrozenView()
	if v2 := en.FrozenView(); v2 == v1 {
		t.Error("COW-off freeze returned a cached generation")
	}
	en.SetSnapshotCOW(true)
	mustCreate(t, en, "Data", "B")
	got := en.FrozenView().(frozenIndexes)
	want := en.FrozenViewRebuild().(frozenIndexes)
	assertViewsEqual(t, 0, got, want, en.Schema().ClassNames())
}
