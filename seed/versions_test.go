package seed

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/item"
	"repro/internal/model"
	"repro/internal/pattern"
)

// TestRandomVersionViewsMatchSavedCopies drives an on-disk database from a
// seeded op mix — edits, patterns and inheritance, version save, select,
// delete, vacuum, schema evolution, compaction and reopen — and keeps a
// deep copy of every version's raw view, taken when it was saved. After
// every op, each listed version must answer like a fresh splice over its
// copy twice: as VersionView serves it (pinned or cached) and rebuilt cold
// from the version's delta path. A transition rule checks that each save
// hands it the generation the new version pins as Next and the base's view
// as Prev. One goroutine reads version views while the writer runs.
func TestRandomVersionViewsMatchSavedCopies(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runVersionOracle(t, seed, 160)
		})
	}
}

func runVersionOracle(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	dir := filepath.Join(t.TempDir(), "db")
	db := openDB(t, dir, Options{Schema: Figure3Schema(), Clock: fixedClock()})
	copies := make(map[string]*model.Model) // version number → raw view at save
	var next, prev View
	var prevNum VersionNumber
	capture := func(db *Database) {
		db.RegisterTransitionRule("capture", func(tr Transition) error {
			next, prev, prevNum = tr.Next, tr.Prev, tr.PrevNum
			return nil
		})
	}
	capture(db)

	var stop chan struct{}
	var wg sync.WaitGroup
	startReader := func(db *Database) {
		stop = make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				case <-time.After(50 * time.Microsecond):
				}
				vs := db.Versions()
				if len(vs) == 0 {
					continue
				}
				v, err := db.VersionView(vs[i%len(vs)].Num)
				if err != nil {
					continue // deleted since the listing
				}
				for _, id := range v.Objects() {
					v.Object(id)
					v.Children(id, "")
				}
			}
		}()
	}
	stopReader := func() { close(stop); wg.Wait() }
	startReader(db)
	defer func() { stopReader(); db.Close() }()

	pick := func(ids []ID) ID {
		if len(ids) == 0 {
			return NoID
		}
		return ids[rng.Intn(len(ids))]
	}
	names, classes := 0, 0
	for step := 0; step < steps; step++ {
		raw := db.RawView()
		objs, rels := raw.Objects(), raw.Relationships()
		ofClass := func(class string) []ID {
			ids, _ := raw.(item.IndexedView).ObjectsOfClass(class)
			return ids
		}
		datas, actions := append(append([]ID(nil), ofClass("Data")...), ofClass("InputData")...), ofClass("Action")
		var op string
		switch r := rng.Intn(100); {
		case r < 16:
			op = "create"
			names++
			cls := []string{"Data", "InputData", "Action"}[rng.Intn(3)]
			_, _ = db.CreateObject(cls, fmt.Sprintf("N%d", names))
		case r < 30:
			op = "sub-object"
			if text, err := db.CreateSubObject(pick(datas), "Text"); err == nil {
				_, _ = db.CreateValueObject(text, "Selector", NewString(fmt.Sprintf("s%d", rng.Intn(2))))
			}
		case r < 40:
			op = "set value"
			_ = db.SetValue(pick(objs), NewString(fmt.Sprintf("s%d", rng.Intn(2))))
		case r < 50:
			op = "relationship"
			_, _ = db.CreateRelationship("Access", map[string]ID{"from": pick(datas), "by": pick(actions)})
		case r < 58:
			op = "delete"
			_ = db.Delete(pick([][]ID{objs, rels}[rng.Intn(2)]))
		case r < 64:
			op = "pattern"
			names++
			if p, err := db.CreatePatternObject("Data", fmt.Sprintf("P%d", names)); err == nil {
				if text, err := db.CreateSubObject(p, "Text"); err == nil {
					_, _ = db.CreateValueObject(text, "Selector", NewString("s1"))
				}
				_, _ = db.Inherit(p, pick(datas))
			}
			_ = db.MarkPattern(pick(actions))
		case r < 78:
			op = "save"
			num, err := db.SaveVersion(fmt.Sprintf("step %d", step))
			if err != nil {
				t.Fatalf("step %d: save: %v", step, err)
			}
			if v, err := db.VersionView(num); err != nil || v != next {
				t.Fatalf("step %d: version %s does not pin the generation its rules saw as Next (%v)", step, num, err)
			}
			var want View = pattern.NewSpliced(model.New(db.Schema()))
			if prevNum != nil {
				want = savedView(t, db, copies, prevNum)
			}
			if err := sameView(prev, want); err != nil {
				t.Fatalf("step %d: Transition.Prev of %s: %v", step, num, err)
			}
			copies[num.String()] = model.FromView(db.Schema(), db.RawView())
		case r < 83:
			op = "select"
			if vs := db.Versions(); len(vs) > 0 {
				if err := db.SelectVersionDiscard(vs[rng.Intn(len(vs))].Num); err != nil {
					t.Fatalf("step %d: select: %v", step, err)
				}
			}
		case r < 90:
			op = "delete version"
			vs := db.Versions()
			if len(vs) == 0 {
				break
			}
			num := vs[rng.Intn(len(vs))].Num
			if _, err := db.VersionView(num); err != nil { // pin it, so a kept slot shows
				t.Fatal(err)
			}
			db.mu.RLock()
			node, _ := db.vers.Lookup(num)
			db.mu.RUnlock()
			if db.DeleteVersion(num) == nil {
				delete(copies, num.String())
				if db.pins.lookup(node) != nil {
					t.Fatalf("step %d: deleted version %s still pinned", step, num)
				}
			}
		case r < 94:
			op = "vacuum"
			if _, err := db.Vacuum(); err != nil {
				t.Fatalf("step %d: vacuum: %v", step, err)
			}
		case r < 97:
			op = "evolve schema"
			classes++
			if err := db.EvolveSchema(func(s *Schema) error {
				_, err := s.AddClass(fmt.Sprintf("New%d", classes))
				return err
			}); err != nil {
				t.Fatalf("step %d: evolve: %v", step, err)
			}
		default:
			op = "compact and reopen"
			if err := db.Compact(); err != nil {
				t.Fatalf("step %d: compact: %v", step, err)
			}
			stopReader()
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db = openDB(t, dir, Options{Clock: fixedClock()})
			capture(db)
			startReader(db)
		}
		checkVersionViews(t, db, copies, fmt.Sprintf("seed %d step %d (%s)", seed, step, op))
	}
}

// checkVersionViews compares every listed version with its saved copy as
// VersionView serves it and, when that is a pinned generation, rebuilt cold
// as well — an unpinned version's VersionView is itself the rebuild.
func checkVersionViews(t *testing.T, db *Database, copies map[string]*model.Model, at string) {
	t.Helper()
	vs := db.Versions()
	if len(vs) != len(copies) {
		t.Fatalf("%s: %d versions listed, %d saved copies", at, len(vs), len(copies))
	}
	for _, info := range vs {
		want := savedView(t, db, copies, info.Num)
		db.mu.RLock()
		node, _ := db.vers.Lookup(info.Num)
		var cold *snapshotCache
		var err error
		if db.pins.lookup(node) != nil { // else VersionView itself rebuilds
			cold, err = db.rebuildVersionLocked(node)
		}
		db.mu.RUnlock()
		if err != nil {
			t.Fatalf("%s: rebuild %s: %v", at, info.Num, err)
		}
		if cold != nil {
			if err := sameView(cold.userView(), want); err != nil {
				t.Fatalf("%s: version %s rebuilt: %v", at, info.Num, err)
			}
		}
		got, err := db.VersionView(info.Num)
		if err != nil {
			t.Fatalf("%s: VersionView(%s): %v", at, info.Num, err)
		}
		if err := sameView(got, want); err != nil {
			t.Fatalf("%s: version %s as served: %v", at, info.Num, err)
		}
	}
}

// savedView is a fresh splice over a version's saved copy, rebound to the
// database's schema of that version.
func savedView(t *testing.T, db *Database, copies map[string]*model.Model, num VersionNumber) View {
	t.Helper()
	saved, ok := copies[num.String()]
	if !ok {
		t.Fatalf("version %s has no saved copy", num)
	}
	db.mu.RLock()
	node, err := db.vers.Lookup(num)
	db.mu.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	sch, err := db.SchemaAt(node.SchemaVer)
	if err != nil {
		t.Fatal(err)
	}
	return pattern.NewSpliced(model.FromView(sch, saved))
}
