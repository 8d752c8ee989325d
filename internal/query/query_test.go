package query_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/item"
	"repro/internal/pattern"
	"repro/internal/query"
	"repro/internal/value"
	"repro/seed"
)

// The query tests run against a populated seed database: a small dataflow
// specification in the figure 3 schema.
func testDB(t *testing.T) (*seed.Database, map[string]seed.ID) {
	t.Helper()
	db, err := seed.NewMemory(seed.Figure3Schema())
	if err != nil {
		t.Fatal(err)
	}
	ids := make(map[string]seed.ID)
	mk := func(class, name string) seed.ID {
		id, err := db.CreateObject(class, name)
		if err != nil {
			t.Fatalf("create %s %s: %v", class, name, err)
		}
		ids[name] = id
		return id
	}
	alarms := mk("OutputData", "Alarms")
	proc := mk("InputData", "ProcessData")
	cfg := mk("Data", "Config")
	vague := mk("Thing", "Vague")
	sensor := mk("Action", "Sensor")
	handler := mk("Action", "AlarmHandler")
	_ = vague

	rel := func(assoc string, ends map[string]seed.ID) seed.ID {
		id, err := db.CreateRelationship(assoc, ends)
		if err != nil {
			t.Fatalf("rel %s: %v", assoc, err)
		}
		return id
	}
	rel("Write", map[string]seed.ID{"from": alarms, "by": sensor})
	rel("Read", map[string]seed.ID{"from": proc, "by": handler})
	rel("Access", map[string]seed.ID{"from": cfg, "by": handler})
	rel("Contained", map[string]seed.ID{"contained": sensor, "container": handler})

	if _, err := db.CreateValueObject(alarms, "Description", seed.NewString("alarm output matrix")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateValueObject(proc, "Description", seed.NewString("raw process data")); err != nil {
		t.Fatal(err)
	}
	text, err := db.CreateSubObject(alarms, "Text")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateValueObject(text, "Selector", seed.NewString("Representation")); err != nil {
		t.Fatal(err)
	}
	// Config has a Description sub-object with no value yet (undefined).
	if _, err := db.CreateSubObject(cfg, "Description"); err != nil {
		t.Fatal(err)
	}
	return db, ids
}

func TestClassSelection(t *testing.T) {
	db, ids := testDB(t)
	v := db.View()

	// Exact class.
	got, err := query.New().Class("OutputData", false).Run(v)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != ids["Alarms"] {
		t.Errorf("OutputData = %v", got)
	}
	// With specializations: Data finds Alarms, ProcessData, Config.
	got, _ = query.New().Class("Data", true).Run(v)
	if len(got) != 3 {
		t.Errorf("Data family = %v", got)
	}
	// Thing with specializations finds everything.
	got, _ = query.New().Class("Thing", true).Run(v)
	if len(got) != 6 {
		t.Errorf("Thing family = %d objects", len(got))
	}
	// Thing exact finds only the vague object.
	got, _ = query.New().Class("Thing", false).Run(v)
	if len(got) != 1 || got[0] != ids["Vague"] {
		t.Errorf("Thing exact = %v", got)
	}
}

func TestNameGlob(t *testing.T) {
	db, ids := testDB(t)
	got, err := query.New().NameGlob("Alarm*").Run(db.View())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 { // Alarms, AlarmHandler
		t.Errorf("Alarm* = %v", got)
	}
	got, _ = query.New().NameGlob("*Data").Run(db.View())
	if len(got) != 1 || got[0] != ids["ProcessData"] {
		t.Errorf("*Data = %v", got)
	}
	if _, err := query.New().NameGlob("[").Run(db.View()); err == nil {
		t.Error("bad glob accepted")
	}
}

func TestValuePredicates(t *testing.T) {
	db, ids := testDB(t)
	v := db.View()

	got, _ := query.New().Where("Description", query.Contains, seed.NewString("process")).Run(v)
	if len(got) != 1 || got[0] != ids["ProcessData"] {
		t.Errorf("contains = %v", got)
	}
	// Nested path.
	got, _ = query.New().Where("Text.Selector", query.Eq, seed.NewString("Representation")).Run(v)
	if len(got) != 1 || got[0] != ids["Alarms"] {
		t.Errorf("nested = %v", got)
	}
	// Undefined matches nothing: Config has a Description sub-object with
	// no value, so it never matches — not even Ne.
	got, _ = query.New().Class("Data", false).Where("Description", query.Ne, seed.NewString("x")).Run(v)
	if len(got) != 0 {
		t.Errorf("undefined matched: %v", got)
	}
	// Missing sub-object matches nothing.
	got, _ = query.New().NameGlob("Sensor").Where("Description", query.Eq, seed.NewString("")).Run(v)
	if len(got) != 0 {
		t.Errorf("missing sub-object matched: %v", got)
	}
	// Ordering operators.
	got, _ = query.New().Where("Description", query.Ge, seed.NewString("raw")).Run(v)
	if len(got) != 1 || got[0] != ids["ProcessData"] {
		t.Errorf("Ge = %v", got)
	}
	// Kind mismatch matches nothing.
	got, _ = query.New().Where("Description", query.Eq, seed.NewInteger(7)).Run(v)
	if len(got) != 0 {
		t.Errorf("kind mismatch matched: %v", got)
	}
	// Bad role path errors.
	if _, err := query.New().Where("", query.Eq, seed.NewString("x")).Run(v); err == nil {
		t.Error("empty path accepted")
	}
	if _, err := query.New().Where("a..b", query.Eq, seed.NewString("x")).Run(v); err == nil {
		t.Error("double dot accepted")
	}
}

func TestLimit(t *testing.T) {
	db, _ := testDB(t)
	got, _ := query.New().Limit(2).Run(db.View())
	if len(got) != 2 {
		t.Errorf("limit = %v", got)
	}
}

func TestFollow(t *testing.T) {
	db, ids := testDB(t)
	v := db.View()
	// Who accesses what: Access family covers Read, Write, Access.
	dst, err := query.Follow(v, []item.ID{ids["Alarms"]}, "Access", "from", "by")
	if err != nil {
		t.Fatal(err)
	}
	if len(dst) != 1 || dst[0] != ids["Sensor"] {
		t.Errorf("Alarms accessed by = %v", dst)
	}
	// Write only: ProcessData is read, not written.
	dst, _ = query.Follow(v, []item.ID{ids["ProcessData"]}, "Write", "from", "by")
	if len(dst) != 0 {
		t.Errorf("Write from ProcessData = %v", dst)
	}
	// Multiple sources, deduplicated targets.
	dst, _ = query.Follow(v, []item.ID{ids["ProcessData"], ids["Config"]}, "Access", "from", "by")
	if len(dst) != 1 || dst[0] != ids["AlarmHandler"] {
		t.Errorf("handler lookup = %v", dst)
	}
	if _, err := query.Follow(v, nil, "Nope", "from", "by"); err == nil {
		t.Error("unknown association accepted")
	}
}

func TestJoin(t *testing.T) {
	db, ids := testDB(t)
	v := db.View()
	data, _ := query.New().Class("Data", true).Run(v)
	actions, _ := query.New().Class("Action", false).Run(v)
	pairs, err := query.Join(v, data, actions, "Access", "from", "by")
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 3 {
		t.Fatalf("join size = %d, want 3", len(pairs))
	}
	// The vague object and objects without access relationships are simply
	// absent — joins are defined on existing relationships only.
	for _, p := range pairs {
		if p.Left == ids["Vague"] {
			t.Error("vague object appeared in join")
		}
	}
}

func TestQueryOverVersionView(t *testing.T) {
	db, ids := testDB(t)
	v1, err := db.SaveVersion("populated")
	if err != nil {
		t.Fatal(err)
	}
	// Delete Alarms in the current state.
	if err := db.Delete(ids["Alarms"]); err != nil {
		t.Fatal(err)
	}
	now, _ := query.New().Class("OutputData", false).Run(db.View())
	if len(now) != 0 {
		t.Errorf("current OutputData = %v", now)
	}
	// The version view still finds it with the same query.
	old, err := db.VersionView(v1)
	if err != nil {
		t.Fatal(err)
	}
	then, _ := query.New().Class("OutputData", false).Run(old)
	if len(then) != 1 || then[0] != ids["Alarms"] {
		t.Errorf("1.0 OutputData = %v", then)
	}
}

// TestOffsetPaging: Offset skips matches in the stable ascending-ID order,
// composes with Limit into gapless, non-overlapping pages, and empties the
// exact-name fast path.
func TestOffsetPaging(t *testing.T) {
	db, _ := testDB(t)
	defer db.Close()
	v := db.View()

	all, err := query.New().Class("Thing", true).Run(v)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) < 4 {
		t.Fatalf("fixture too small: %d objects", len(all))
	}
	var paged []item.ID
	for off := 0; off < len(all); off += 2 {
		page, err := query.New().Class("Thing", true).Limit(2).Offset(off).Run(v)
		if err != nil {
			t.Fatal(err)
		}
		if len(page) > 2 {
			t.Fatalf("page at offset %d has %d results", off, len(page))
		}
		paged = append(paged, page...)
	}
	if len(paged) != len(all) {
		t.Fatalf("pages reassemble to %d ids, want %d", len(paged), len(all))
	}
	for i := range all {
		if paged[i] != all[i] {
			t.Errorf("paged[%d] = %d, want %d", i, paged[i], all[i])
		}
	}
	if past, err := query.New().Class("Thing", true).Offset(len(all)).Run(v); err != nil || len(past) != 0 {
		t.Errorf("offset past the end: %v, %v", past, err)
	}
	if one, err := query.New().NameGlob("Alarms").Offset(1).Run(v); err != nil || len(one) != 0 {
		t.Errorf("offset on the exact-name path: %v, %v", one, err)
	}
}

// TestGenericPredicateAllocs pins the generic residual walk allocation-free:
// one inherits link keeps the user view spliced, so no compiled test
// applies, and RunPlan must allocate as often over 40 class-path
// candidates as over 400. The first predicate passes on every candidate
// and walks two roles; the second rejects every one, so the result stays
// empty.
func TestGenericPredicateAllocs(t *testing.T) {
	day := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	allocs := func(n int) float64 {
		db, err := seed.NewMemory(seed.Figure3Schema())
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		must := func(id seed.ID, err error) seed.ID {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
			return id
		}
		for i := 0; i < n; i++ {
			root := must(db.CreateObject("Data", fmt.Sprintf("D%d", i)))
			text := must(db.CreateSubObject(root, "Text"))
			must(db.CreateValueObject(text, "Selector", seed.NewString("s")))
			must(db.CreateValueObject(root, "Revised", seed.NewDate(day.AddDate(0, 0, i%10))))
		}
		pat := must(db.CreatePatternObject("Action", "P"))
		must(db.Inherit(pat, must(db.CreateObject("Action", "Inheritor"))))
		v := db.View()
		if _, spliced := v.(*pattern.Spliced); !spliced {
			t.Fatalf("user view with an inherits link is %T, want *pattern.Spliced", v)
		}
		run := func() {
			ids, plan, err := query.New().Class("Data", false).
				Where("Text.Selector", query.Eq, value.NewString("s")).
				Where("Revised", query.Gt, value.NewDate(day.AddDate(0, 0, 100))).
				RunPlan(v)
			if err != nil || len(ids) != 0 || plan.Access != query.AccessClass || plan.Candidates != n {
				t.Fatalf("n=%d: %v %+v %v", n, ids, plan, err)
			}
		}
		return testing.AllocsPerRun(20, run)
	}
	if small, large := allocs(40), allocs(400); large != small {
		t.Errorf("RunPlan allocates %.0f times over 40 candidates and %.0f over 400", small, large)
	}
}
