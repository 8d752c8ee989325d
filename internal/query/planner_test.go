package query_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/item"
	"repro/internal/pattern"
	"repro/internal/query"
	"repro/seed"
)

// Differential test for the cost-based planner: a query must return the
// same IDs no matter which access path executes it — the planner's
// automatic choice, the forced class path, a forced attribute-index path
// (which silently falls back to the scan when inapplicable), the forced
// scan, and the index-less scanOnly view as independent ground truth. The
// dataset is randomized over several value kinds, includes pattern objects
// and spliced (virtual) items, and churns through copy-on-write
// generations.

// plannerClasses are the Figure 3 classes the test registers indexes on —
// Thing's whole specialization subtree, so includeSpecs queries have an
// index on every covered class.
var plannerClasses = []string{"Thing", "Data", "InputData", "OutputData", "Action"}

func registerPlannerIndexes(t *testing.T, db *seed.Database) {
	t.Helper()
	for _, cls := range plannerClasses {
		if err := db.CreateAttrIndex(cls, "Description", seed.AttrOrdered); err != nil {
			t.Fatal(err)
		}
		if err := db.CreateAttrIndex(cls, "Revised", seed.AttrOrdered); err != nil {
			t.Fatal(err)
		}
	}
	// A hash index on a two-level path: equality only, Data subtree only
	// (so Thing-wide queries cannot use it and the planner must notice).
	for _, cls := range []string{"Data", "InputData", "OutputData"} {
		if err := db.CreateAttrIndex(cls, "Text.Selector", seed.AttrHash); err != nil {
			t.Fatal(err)
		}
	}
}

// buildPlannerDataset populates a database with randomized objects across
// the Figure 3 classes: string Descriptions (some undefined), date Revised
// stamps, Text.Selector chains below Data roots, patterns, and inherited
// (spliced) items.
func buildPlannerDataset(t *testing.T, db *seed.Database, seedNum int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seedNum))
	classes := []string{"Thing", "Data", "InputData", "OutputData", "Action"}
	day := func(n int) time.Time { return time.Date(2026, 1, 1+n, 0, 0, 0, 0, time.UTC) }
	var patterns, bare []seed.ID
	for i := 0; i < 150; i++ {
		class := classes[rng.Intn(len(classes))]
		name := fmt.Sprintf("Obj%03d", i)
		if rng.Intn(10) == 0 {
			id, err := db.CreatePatternObject("Thing", name)
			if err != nil {
				t.Fatal(err)
			}
			patterns = append(patterns, id)
			continue
		}
		id, err := db.CreateObject(class, name)
		if err != nil {
			t.Fatal(err)
		}
		switch rng.Intn(4) {
		case 0:
			if _, err := db.CreateValueObject(id, "Description",
				seed.NewString(fmt.Sprintf("desc %d", rng.Intn(5)))); err != nil {
				t.Fatal(err)
			}
		case 1: // created but never given a value: stays undefined
			if _, err := db.CreateSubObject(id, "Description"); err != nil {
				t.Fatal(err)
			}
		default:
			bare = append(bare, id)
		}
		if rng.Intn(2) == 0 {
			if _, err := db.CreateValueObject(id, "Revised",
				seed.NewDate(day(rng.Intn(20)))); err != nil {
				t.Fatal(err)
			}
		}
		if (class == "Data" || class == "InputData" || class == "OutputData") && rng.Intn(2) == 0 {
			text, err := db.CreateSubObject(id, "Text")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := db.CreateValueObject(text, "Selector",
				seed.NewString(fmt.Sprintf("sel-%d", rng.Intn(6)))); err != nil {
				t.Fatal(err)
			}
		}
	}
	inherited := 0
	for i, pat := range patterns {
		if _, err := db.CreateValueObject(pat, "Description",
			seed.NewString(fmt.Sprintf("inherited %d", i))); err != nil {
			t.Fatal(err)
		}
		for n := 0; n < 2 && len(bare) > 0; n++ {
			inh := bare[len(bare)-1]
			bare = bare[:len(bare)-1]
			if _, err := db.Inherit(pat, inh); err != nil {
				t.Fatal(err)
			}
			inherited++
		}
	}
	if len(patterns) == 0 || inherited == 0 {
		t.Fatalf("dataset misses pattern coverage: %d patterns, %d inherits",
			len(patterns), inherited)
	}
}

// randomPlannerQuery returns a fresh-builder closure for one random query —
// a closure because Force mutates the builder, so each forced run needs its
// own copy.
func randomPlannerQuery(rng *rand.Rand) (string, func() *query.Query) {
	classChoices := []string{"", "Thing", "Data", "InputData", "OutputData", "Action", "NoSuchClass"}
	globChoices := []string{"", "Obj042", "Obj0*", "NoSuchName"}
	paths := []string{"Description", "Revised", "Text.Selector", "Weight"}
	ops := []query.CompareOp{query.Eq, query.Ne, query.Lt, query.Le, query.Gt, query.Ge, query.Contains}

	class := classChoices[rng.Intn(len(classChoices))]
	specs := rng.Intn(2) == 0
	glob := globChoices[rng.Intn(len(globChoices))]
	type predSpec struct {
		path string
		op   query.CompareOp
		val  seed.Value
	}
	var preds []predSpec
	for n := rng.Intn(3); n > 0; n-- {
		p := predSpec{path: paths[rng.Intn(len(paths))], op: ops[rng.Intn(len(ops))]}
		// Values deliberately include kind mismatches (an integer compared
		// against a string path): both the index and the scan must agree
		// that mismatched ordered comparisons match nothing.
		switch rng.Intn(6) {
		case 0:
			p.val = seed.NewString(fmt.Sprintf("desc %d", rng.Intn(5)))
		case 1:
			p.val = seed.NewString(fmt.Sprintf("sel-%d", rng.Intn(6)))
		case 2:
			p.val = seed.NewDate(time.Date(2026, 1, 1+rng.Intn(20), 0, 0, 0, 0, time.UTC))
		case 3:
			p.val = seed.NewString(longDesc(rng.Intn(5)))
		default: // mostly REAL on the REAL path
			if p.path == "Weight" {
				p.val = seed.NewReal(plannerReals[rng.Intn(len(plannerReals))])
			} else {
				p.val = seed.NewInteger(int64(rng.Intn(10)))
			}
		}
		preds = append(preds, p)
	}
	label := fmt.Sprintf("class=%q specs=%v glob=%q preds=%d", class, specs, glob, len(preds))
	return label, func() *query.Query {
		q := query.New()
		if class != "" {
			q = q.Class(class, specs)
		}
		if glob != "" {
			q = q.NameGlob(glob)
		}
		for _, p := range preds {
			q = q.Where(p.path, p.op, p.val)
		}
		return q
	}
}

// checkAllPaths runs one query through every access path over one view and
// fails on any divergence from the scanOnly ground truth.
func checkAllPaths(t *testing.T, ctx string, v item.View, mk func() *query.Query) {
	t.Helper()
	truth, err := mk().Run(scanOnly{v})
	if err != nil {
		t.Fatalf("%s: ground truth: %v", ctx, err)
	}
	forces := []query.Access{
		query.AccessAuto, query.AccessScan, query.AccessName,
		query.AccessClass, query.AccessAttrEq, query.AccessAttrRange,
	}
	for _, force := range forces {
		ids, plan, err := mk().Force(force).RunPlan(v)
		if err != nil {
			t.Fatalf("%s force=%s: %v", ctx, force, err)
		}
		if !reflect.DeepEqual(ids, truth) {
			t.Fatalf("%s force=%s (ran %s): got %v, scan ground truth %v",
				ctx, force, plan.Access, ids, truth)
		}
		if plan.Candidates < plan.Matched {
			t.Fatalf("%s force=%s: plan counts impossible: %+v", ctx, force, plan)
		}
	}
}

// plannerReals are the Weight values of the REAL path: signed zeros, NaN
// and infinities beside plain numbers.
var plannerReals = []float64{math.Copysign(0, -1), 0, 0.25, 1.5, -0.5, -2, math.NaN(), math.Inf(1), math.Inf(-1)}

// longDesc is a Description too long for the store to intern, sharing the
// "desc n" prefix of the short ones.
func longDesc(n int) string {
	return fmt.Sprintf("desc %d %s", n, strings.Repeat("long ", 8))
}

// addRealAndLongValues evolves Thing by a REAL Weight 0..*, gives a
// random third of the Thing family a Weight (defined or not) and rewrites a
// random quarter of the defined Descriptions to longDesc.
func addRealAndLongValues(t *testing.T, db *seed.Database, rng *rand.Rand) {
	t.Helper()
	err := db.EvolveSchema(func(sch *seed.Schema) error {
		_, err := sch.MustClass("Thing").AddChild("Weight", seed.Any, seed.KindReal)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	all, err := query.New().Class("Thing", true).Run(db.RawView())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range all {
		switch rng.Intn(6) {
		case 0:
			_, err = db.CreateSubObject(id, "Weight")
		case 1, 2:
			_, err = db.CreateValueObject(id, "Weight", seed.NewReal(plannerReals[rng.Intn(len(plannerReals))]))
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range db.RawView().Children(id, "Description") {
			if o, ok := db.RawView().Object(d); ok && o.Value.IsDefined() && rng.Intn(4) == 0 {
				if err := db.SetValue(d, seed.NewString(longDesc(rng.Intn(5)))); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestPlannerRandomForcedDifferential is the planner's randomized
// differential: every access path agrees on every random query, over the
// spliced user view, the raw view (whose residuals run compiled) and the
// user view with every extension hidden, across copy-on-write churn. The
// subtest is named for the store it runs on.
func TestPlannerRandomForcedDifferential(t *testing.T) {
	t.Run("columnar=true", func(t *testing.T) {
		db, err := seed.NewMemory(seed.Figure3Schema())
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		registerPlannerIndexes(t, db)
		buildPlannerDataset(t, db, 31)
		rng := rand.New(rand.NewSource(67))
		addRealAndLongValues(t, db, rng)

		views := func() map[string]item.View {
			// generic hides every extension: every path falls back to the
			// scan with the generic predicate walk, which the compiled
			// tests of the raw view must agree with.
			return map[string]item.View{"user": db.View(), "raw": db.RawView(), "generic": struct{ item.View }{db.View()}}
		}
		for vname, v := range views() {
			for i := 0; i < 60; i++ {
				label, mk := randomPlannerQuery(rng)
				checkAllPaths(t, fmt.Sprintf("%s q%d %s", vname, i, label), v, mk)
			}
		}

		// Churn: deletions, reclassifications, and value rewrites move
		// postings between and within indexes across generations.
		all, err := query.New().Class("Thing", true).Run(db.View())
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 6; round++ {
			for i := 0; i < 12 && len(all) > 0; i++ {
				id := all[rng.Intn(len(all))]
				switch rng.Intn(4) {
				case 0:
					_ = db.Delete(id)
				case 1:
					_ = db.Reclassify(id, "OutputData")
				case 2:
					_ = db.Reclassify(id, "Data")
				default:
					if sub, err := db.CreateValueObject(id, "Description",
						seed.NewString(fmt.Sprintf("desc %d", rng.Intn(5)))); err != nil {
						_ = sub // role may be occupied or id deleted; both fine
					}
				}
			}
			for vname, v := range views() {
				for i := 0; i < 15; i++ {
					label, mk := randomPlannerQuery(rng)
					checkAllPaths(t, fmt.Sprintf("round%d %s q%d %s", round, vname, i, label), v, mk)
				}
			}
		}
	})
}

// classCounting forwards a view's class and attribute index extensions and
// counts the calls that list a class extent and those that only size it.
type classCounting struct {
	item.View
	lists, counts int
}

func (c *classCounting) ObjectsOfClass(qualified string) ([]item.ID, bool) {
	c.lists++
	return c.View.(item.IndexedView).ObjectsOfClass(qualified)
}

func (c *classCounting) CountOfClass(qualified string) (int, bool) {
	c.counts++
	ids, ok := c.View.(item.IndexedView).ObjectsOfClass(qualified)
	return len(ids), ok
}

func (c *classCounting) AttrIndex(key item.AttrKey) (*item.AttrIdx, bool) {
	return c.View.(item.AttrIndexedView).AttrIndex(key)
}

// TestPlannerChoosesIndexedPath pins the planner's choices on unambiguous
// queries: equality on an indexed path reports attr-eq with est matching
// the enumerated candidates and a class estimate that never lists the
// extent, ranges report attr-range, a literal name wins over everything,
// and an unindexed view falls back to the scan.
func TestPlannerChoosesIndexedPath(t *testing.T) {
	db, err := seed.NewMemory(seed.Figure3Schema())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	registerPlannerIndexes(t, db)
	buildPlannerDataset(t, db, 43)
	// The raw view: a spliced user view with virtual items refuses to
	// delegate AttrIndex (the base index cannot see virtual values), so
	// attr paths plan only on splice-free views.
	v := db.RawView()

	cases := []struct {
		name   string
		mk     func() *query.Query
		access query.Access
	}{
		{"attr-eq", func() *query.Query {
			return query.New().Class("Data", false).Where("Description", query.Eq, seed.NewString("desc 1"))
		}, query.AccessAttrEq},
		{"attr-eq-specs", func() *query.Query {
			return query.New().Class("Thing", true).Where("Description", query.Eq, seed.NewString("desc 1"))
		}, query.AccessAttrEq},
		{"attr-eq-hash", func() *query.Query {
			return query.New().Class("Data", false).Where("Text.Selector", query.Eq, seed.NewString("sel-2"))
		}, query.AccessAttrEq},
		{"attr-range", func() *query.Query {
			return query.New().Class("Data", false).
				Where("Revised", query.Ge, seed.NewDate(time.Date(2026, 1, 15, 0, 0, 0, 0, time.UTC)))
		}, query.AccessAttrRange},
		{"range-on-hash-falls-back", func() *query.Query {
			// Text.Selector has only a hash index; a range cannot use it and
			// the class index is the next-best path.
			return query.New().Class("Data", false).Where("Text.Selector", query.Gt, seed.NewString("sel-0"))
		}, query.AccessClass},
		{"name-literal", func() *query.Query {
			return query.New().Class("Data", true).NameGlob("Obj042").
				Where("Description", query.Eq, seed.NewString("desc 1"))
		}, query.AccessName},
		{"no-restriction-scans", func() *query.Query {
			return query.New().Where("Description", query.Eq, seed.NewString("desc 1"))
		}, query.AccessScan},
		{"name-prefix", func() *query.Query {
			// A prefix glob ranges over the ordered name index instead of
			// scanning every object.
			return query.New().NameGlob("Obj04*")
		}, query.AccessName},
	}
	for _, tc := range cases {
		ids, plan, err := tc.mk().RunPlan(v)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if plan.Access != tc.access {
			t.Errorf("%s: planned %s, want %s (plan %s)", tc.name, plan.Access, tc.access, plan)
		}
		if plan.Forced {
			t.Errorf("%s: plan claims forced on an auto run", tc.name)
		}
		truth, err := tc.mk().Run(scanOnly{v})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ids, truth) {
			t.Errorf("%s: got %v, want %v", tc.name, ids, truth)
		}
		if tc.access != query.AccessAttrEq && tc.access != query.AccessAttrRange {
			continue
		}
		if plan.Est != plan.Candidates {
			// Attribute estimates count index postings the executor then
			// enumerates one-to-one, so est and candidates agree exactly.
			t.Errorf("%s: est %d != candidates %d", tc.name, plan.Est, plan.Candidates)
		}
		// Ranking the losing class path must count it via item.ClassCounter:
		// listing the extent just to size it is O(class) on a spliced view.
		cv := &classCounting{View: v}
		if _, plan, err := tc.mk().RunPlan(cv); err != nil || plan.Access != tc.access {
			t.Fatalf("%s via classCounting: plan %v, err %v", tc.name, plan, err)
		}
		if cv.lists != 0 || cv.counts == 0 {
			t.Errorf("%s: class extent listed %d times, counted %d; want 0 lists", tc.name, cv.lists, cv.counts)
		}
	}

	// A spliced view sizes its base extent through the base's ClassCounter
	// too, never by listing it.
	cv := &classCounting{View: v}
	if n, ok := pattern.NewSpliced(cv).CountOfClass("Data"); !ok || n == 0 || cv.lists != 0 || cv.counts != 1 {
		t.Errorf("spliced CountOfClass = %d, %v: class extent listed %d times, counted %d; want 0 lists, 1 count",
			n, ok, cv.lists, cv.counts)
	}

	// Forcing the name path on a prefix glob runs the same ordered-index
	// range the planner would pick and agrees with the scan ground truth.
	mk := func() *query.Query { return query.New().NameGlob("Obj*").Force(query.AccessName) }
	ids, plan, err := mk().RunPlan(v)
	if err != nil {
		t.Fatalf("forced name glob: %v", err)
	}
	if plan.Access != query.AccessName || !plan.Forced {
		t.Errorf("forced name glob: ran %s forced=%v, want forced name", plan.Access, plan.Forced)
	}
	truth, err := mk().Run(scanOnly{v})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, truth) {
		t.Errorf("forced name glob: got %v, want %v", ids, truth)
	}
}
