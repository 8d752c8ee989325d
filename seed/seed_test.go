package seed

import (
	"errors"
	"testing"
	"time"
)

func memDB(t *testing.T, sch *Schema) *Database {
	t.Helper()
	db, err := NewMemory(sch)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func create(t *testing.T, db *Database, class, name string) ID {
	t.Helper()
	id, err := db.CreateObject(class, name)
	if err != nil {
		t.Fatalf("CreateObject(%s, %s): %v", class, name, err)
	}
	return id
}

func TestQuickstartFlow(t *testing.T) {
	db := memDB(t, Figure2Schema())
	alarms := create(t, db, "Data", "Alarms")
	handler := create(t, db, "Action", "AlarmHandler")
	if _, err := db.CreateRelationship("Read", map[string]ID{"from": alarms, "by": handler}); err != nil {
		t.Fatal(err)
	}
	text, err := db.CreateSubObject(alarms, "Text")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateValueObject(text, "Selector", NewString("Representation")); err != nil {
		t.Fatal(err)
	}
	id, err := db.ResolvePath("Alarms.Text[0].Selector")
	if err != nil {
		t.Fatal(err)
	}
	o, _ := db.View().Object(id)
	if o.Value.Str() != "Representation" {
		t.Errorf("Selector value = %q", o.Value)
	}
	if p, ok := db.PathOf(id); !ok || p.String() != "Alarms.Text[0].Selector" {
		t.Errorf("PathOf = %v %v", p, ok)
	}
	if _, ok := db.GetObject("Alarms"); !ok {
		t.Error("GetObject failed")
	}
}

// TestFigure4Versions reproduces the version scenario of figures 4a-4c
// (experiment E3): AlarmHandler with Revised/Description over versions 1.0
// and 2.0 plus a current state; the views to 1.0 and Current must show the
// states of figures 4c and 4b.
func TestFigure4Versions(t *testing.T) {
	db := memDB(t, Figure3Schema())

	// Version 1.0 state: AlarmHandler "Handles alarms", revised 1.0-times.
	handler := create(t, db, "Action", "AlarmHandler")
	desc, err := db.CreateValueObject(handler, "Description", NewString("Handles alarms"))
	if err != nil {
		t.Fatal(err)
	}
	rev, err := db.CreateValueObject(handler, "Revised", NewDate(time.Date(1985, 6, 1, 0, 0, 0, 0, time.UTC)))
	if err != nil {
		t.Fatal(err)
	}
	v1, err := db.SaveVersion("first release")
	if err != nil {
		t.Fatal(err)
	}
	if v1.String() != "1.0" {
		t.Fatalf("first version = %s", v1)
	}

	// Version 2.0: the description is refined.
	if err := db.SetValue(desc, NewString("Handles alarms derived from ProcessData")); err != nil {
		t.Fatal(err)
	}
	v2, err := db.SaveVersion("refined description")
	if err != nil {
		t.Fatal(err)
	}
	if v2.String() != "2.0" {
		t.Fatalf("second version = %s", v2)
	}
	// Delta storage: version 2.0 stores only the changed item.
	infos := db.Versions()
	if len(infos) != 2 {
		t.Fatalf("versions = %d", len(infos))
	}
	if infos[1].DeltaSize != 1 {
		t.Errorf("2.0 delta = %d items, want 1 (only the description changed)", infos[1].DeltaSize)
	}
	if infos[0].DeltaSize != 3 {
		t.Errorf("1.0 delta = %d items, want 3", infos[0].DeltaSize)
	}

	// Current: the description is refined again (figure 4b).
	if err := db.SetValue(desc, NewString("Generates alarms from process data, triggers Operator Alert")); err != nil {
		t.Fatal(err)
	}

	// View to 1.0 (figure 4c).
	view1, err := db.VersionView(v1)
	if err != nil {
		t.Fatal(err)
	}
	o, ok := view1.Object(desc)
	if !ok || o.Value.Str() != "Handles alarms" {
		t.Errorf("1.0 description = %q, %v", o.Value, ok)
	}
	// View to 2.0: inherited unchanged items resolve through the path.
	view2, err := db.VersionView(v2)
	if err != nil {
		t.Fatal(err)
	}
	if o, ok := view2.Object(desc); !ok || o.Value.Str() != "Handles alarms derived from ProcessData" {
		t.Errorf("2.0 description = %q, %v", o.Value, ok)
	}
	if _, ok := view2.Object(rev); !ok {
		t.Error("2.0 view lost the unchanged Revised object")
	}
	if _, ok := view2.ObjectByName("AlarmHandler"); !ok {
		t.Error("2.0 view lost the handler by name")
	}
	// The current state shows the newest value.
	if o, _ := db.View().Object(desc); o.Value.Str() != "Generates alarms from process data, triggers Operator Alert" {
		t.Errorf("current description = %q", o.Value)
	}

	// History retrieval: all versions of the description.
	hist := db.HistoryOf(desc, nil)
	if len(hist) != 2 {
		t.Errorf("history of desc = %d versions", len(hist))
	}
	// "beginning with version 2.0".
	hist2 := db.HistoryOf(desc, MustVersion("2.0"))
	if len(hist2) != 1 || hist2[0].Num.String() != "2.0" {
		t.Errorf("history from 2.0 = %v", hist2)
	}
}

// MustVersion parses a version number for tests.
func MustVersion(s string) VersionNumber {
	v, err := ParseVersion(s)
	if err != nil {
		panic(err)
	}
	return v
}

func TestAlternatives(t *testing.T) {
	db := memDB(t, Figure3Schema())
	handler := create(t, db, "Action", "AlarmHandler")
	desc, _ := db.CreateValueObject(handler, "Description", NewString("v1"))
	v1, err := db.SaveVersion("base")
	if err != nil {
		t.Fatal(err)
	}
	_ = db.SetValue(desc, NewString("v2"))
	if _, err := db.SaveVersion("trunk"); err != nil {
		t.Fatal(err)
	}

	// Unsaved changes block selection.
	_ = db.SetValue(desc, NewString("scratch"))
	if err := db.SelectVersion(v1); !errors.Is(err, ErrUnsavedChanges) {
		t.Fatalf("SelectVersion with dirty state: %v", err)
	}
	if err := db.SelectVersionDiscard(v1); err != nil {
		t.Fatal(err)
	}
	// The current state is now version 1.0's.
	if o, _ := db.View().Object(desc); o.Value.Str() != "v1" {
		t.Errorf("state after select = %q", o.Value)
	}
	// Work on the alternative and save: branch number.
	_ = db.SetValue(desc, NewString("alt"))
	alt, err := db.SaveVersion("alternative")
	if err != nil {
		t.Fatal(err)
	}
	if alt.String() != "1.0.1.0" {
		t.Errorf("alternative number = %s, want 1.0.1.0", alt)
	}
	// Continue on the alternative line.
	_ = db.SetValue(desc, NewString("alt2"))
	alt2, err := db.SaveVersion("alternative 2")
	if err != nil {
		t.Fatal(err)
	}
	if alt2.String() != "1.0.1.1" {
		t.Errorf("alternative successor = %s, want 1.0.1.1", alt2)
	}
	// A second alternative off 1.0.
	if err := db.SelectVersion(v1); err != nil {
		t.Fatal(err)
	}
	_ = db.SetValue(desc, NewString("alt-b"))
	altB, err := db.SaveVersion("alternative b")
	if err != nil {
		t.Fatal(err)
	}
	if altB.String() != "1.0.2.0" {
		t.Errorf("second alternative = %s, want 1.0.2.0", altB)
	}
	// The original trunk version is still intact.
	view2, err := db.VersionView(MustVersion("2.0"))
	if err != nil {
		t.Fatal(err)
	}
	if o, _ := view2.Object(desc); o.Value.Str() != "v2" {
		t.Errorf("trunk 2.0 after branching = %q", o.Value)
	}
	// Items created after a select never collide with frozen items; new
	// creations on the alternative keep working.
	if _, err := db.CreateObject("Action", "NewOnBranch"); err != nil {
		t.Fatal(err)
	}
}

func TestVersionDeletion(t *testing.T) {
	db := memDB(t, Figure3Schema())
	create(t, db, "Action", "A")
	v1, _ := db.SaveVersion("1")
	_, _ = db.CreateObject("Action", "B")
	v2, _ := db.SaveVersion("2")
	// 1.0 has a successor: not deletable.
	if err := db.DeleteVersion(v1); err == nil {
		t.Error("deleting non-leaf version succeeded")
	}
	// 2.0 is the current base: not deletable.
	if err := db.DeleteVersion(v2); err == nil {
		t.Error("deleting base version succeeded")
	}
	// After moving back to 1.0... 2.0 becomes deletable.
	if err := db.SelectVersion(v1); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteVersion(v2); err != nil {
		t.Errorf("deleting leaf version: %v", err)
	}
	if len(db.Versions()) != 1 {
		t.Errorf("versions after delete = %d", len(db.Versions()))
	}
}

func TestDeletionAcrossVersions(t *testing.T) {
	db := memDB(t, Figure3Schema())
	a := create(t, db, "Action", "Doomed")
	v1, _ := db.SaveVersion("with object")
	if err := db.Delete(a); err != nil {
		t.Fatal(err)
	}
	v2, _ := db.SaveVersion("without object")
	// Current and 2.0 views hide it; 1.0 still shows it.
	if _, ok := db.View().ObjectByName("Doomed"); ok {
		t.Error("deleted object visible in current")
	}
	view2, _ := db.VersionView(v2)
	if _, ok := view2.ObjectByName("Doomed"); ok {
		t.Error("deleted object visible in 2.0")
	}
	view1, _ := db.VersionView(v1)
	if _, ok := view1.ObjectByName("Doomed"); !ok {
		t.Error("object missing from 1.0")
	}
	// Selecting 1.0 resurrects it in the working state.
	if err := db.SelectVersion(v1); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.View().ObjectByName("Doomed"); !ok {
		t.Error("object not restored by selecting 1.0")
	}
}

// TestFigure5Variants reproduces the variants construction of figure 5
// (experiment E4): a common part connected to pattern objects PO1/PO2 via
// pattern relationships PR1/PR2; two variants inherit both patterns and
// thereby share the same relationships to the common part.
func TestFigure5Variants(t *testing.T) {
	db := memDB(t, Figure3Schema())

	common := create(t, db, "Data", "CommonPart")
	po1, err := db.CreatePatternObject("Action", "PO1")
	if err != nil {
		t.Fatal(err)
	}
	po2, err := db.CreatePatternObject("Action", "PO2")
	if err != nil {
		t.Fatal(err)
	}
	// PR1/PR2: relationships to a pattern become pattern relationships.
	pr1, err := db.CreateRelationship("Access", map[string]ID{"from": common, "by": po1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateRelationship("Access", map[string]ID{"from": common, "by": po2}); err != nil {
		t.Fatal(err)
	}

	// Patterns are invisible to retrieval.
	if _, ok := db.View().ObjectByName("PO1"); ok {
		t.Error("pattern visible by name")
	}
	if _, ok := db.View().Relationship(pr1); ok {
		t.Error("pattern relationship visible")
	}
	if len(db.View().RelationshipsOf(common)) != 0 {
		t.Error("common part shows pattern relationships without inheritors")
	}

	fam := db.NewVariantFamily(po1, po2)
	varA, err := fam.AddVariant("Action", "VariantA")
	if err != nil {
		t.Fatal(err)
	}
	varB, err := fam.AddVariant("Action", "VariantB")
	if err != nil {
		t.Fatal(err)
	}

	// Both variants now have (virtual) relationships to the common part.
	v := db.View()
	relsA := v.RelationshipsOf(varA)
	relsB := v.RelationshipsOf(varB)
	if len(relsA) != 2 || len(relsB) != 2 {
		t.Fatalf("variant relationships: A=%d B=%d, want 2 each", len(relsA), len(relsB))
	}
	// The common part sees four inherited relationships (two per variant).
	if got := len(v.RelationshipsOf(common)); got != 4 {
		t.Errorf("common part relationships = %d, want 4", got)
	}
	// Virtual relationships resolve and point at the inheritor.
	r, ok := v.Relationship(relsA[0])
	if !ok {
		t.Fatal("virtual relationship does not resolve")
	}
	if r.End("by") != varA || r.End("from") != common {
		t.Errorf("virtual ends = %+v", r.Ends)
	}
	// Provenance is reported.
	if _, patRoot, inh, ok := db.Origin(relsA[0]); !ok || (patRoot != po1 && patRoot != po2) || inh != varA {
		t.Errorf("Origin = %v %v %v", patRoot, inh, ok)
	}

	// Inherited information cannot be updated in the inheritor context.
	if err := db.Delete(relsA[0]); !errors.Is(err, ErrInheritedData) {
		t.Errorf("delete of inherited item: %v", err)
	}

	// Updating the pattern propagates to all inheritors: add a sub-object
	// to PO1's context via... PO1 has no children; instead give PO1 a
	// Description — every variant then shows it.
	if _, err := db.CreateValueObject(po1, "Description", NewString("shared doc")); err != nil {
		t.Fatal(err)
	}
	v = db.View()
	foundA, foundB := false, false
	for _, ch := range v.Children(varA, "Description") {
		if o, ok := v.Object(ch); ok && o.Value.Str() == "shared doc" {
			foundA = true
		}
	}
	for _, ch := range v.Children(varB, "Description") {
		if o, ok := v.Object(ch); ok && o.Value.Str() == "shared doc" {
			foundB = true
		}
	}
	if !foundA || !foundB {
		t.Errorf("pattern update did not propagate: A=%v B=%v", foundA, foundB)
	}

	// Disinherit: variant B leaves the family partially.
	if err := db.Disinherit(po2, varB); err != nil {
		t.Fatal(err)
	}
	if got := len(db.View().RelationshipsOf(varB)); got != 1 {
		t.Errorf("variant B relationships after disinherit = %d, want 1", got)
	}
	// Deleting a pattern with inheritors is rejected.
	if err := db.Delete(po1); err == nil {
		t.Error("deleting inherited pattern succeeded")
	}
	// InheritorsOf / PatternsOf bookkeeping.
	if got := db.InheritorsOf(po1); len(got) != 2 {
		t.Errorf("InheritorsOf(po1) = %v", got)
	}
	if got := db.PatternsOf(varB); len(got) != 1 || got[0] != po1 {
		t.Errorf("PatternsOf(varB) = %v", got)
	}
}

func TestPatternConsistencyOnInherit(t *testing.T) {
	db := memDB(t, Figure3Schema())
	// A pattern carrying a Revised date (1..1).
	pat, _ := db.CreatePatternObject("Data", "PatternWithRevised")
	if _, err := db.CreateValueObject(pat, "Revised", NewDate(time.Date(1986, 1, 1, 0, 0, 0, 0, time.UTC))); err != nil {
		t.Fatal(err)
	}
	// An inheritor that already has its own Revised: inheriting would
	// exceed the 1..1 maximum, so Inherit is rejected.
	obj := create(t, db, "Data", "HasOwnRevised")
	if _, err := db.CreateValueObject(obj, "Revised", NewDate(time.Date(1986, 2, 2, 0, 0, 0, 0, time.UTC))); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Inherit(pat, obj); err == nil {
		t.Fatal("inheriting into over-full context succeeded")
	}
	// A fresh inheritor works — and then adding its own Revised is
	// rejected, because the inherited one already fills the maximum.
	obj2 := create(t, db, "Data", "Fresh")
	if _, err := db.Inherit(pat, obj2); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateValueObject(obj2, "Revised", NewDate(time.Date(1986, 3, 3, 0, 0, 0, 0, time.UTC))); err == nil {
		t.Error("own Revised next to inherited one accepted")
	}
	// Updating the pattern in a way that would break an inheritor is
	// rejected: a second Revised on the pattern (patterns alone are not
	// checked, but the inheritor context is).
	if _, err := db.CreateValueObject(pat, "Revised", NewDate(time.Date(1986, 4, 4, 0, 0, 0, 0, time.UTC))); err == nil {
		t.Error("pattern update breaking inheritor accepted")
	}
	// Class conformance: inheriting a Data pattern into an Action fails.
	act := create(t, db, "Action", "Act")
	if _, err := db.Inherit(pat, act); err == nil {
		t.Error("cross-class inheritance accepted")
	}
}

func TestCompletenessReport(t *testing.T) {
	db := memDB(t, Figure3Schema())
	thing := create(t, db, "Thing", "Vague")
	fs := db.Completeness()
	rules := map[Rule]bool{}
	for _, f := range fs {
		if f.Item == thing {
			rules[f.Rule] = true
		}
	}
	if !rules[RuleCovering] {
		t.Error("covering finding missing for Thing instance")
	}
	if !rules[RuleMinChildren] {
		t.Error("min-children finding missing (Revised 1..1)")
	}
	// An undefined value is reported.
	rev, _ := db.CreateSubObject(thing, "Revised")
	found := false
	for _, f := range db.CompletenessOf(rev) {
		if f.Rule == RuleUndefinedValue {
			found = true
		}
	}
	if !found {
		t.Error("undefined-value finding missing")
	}
	_ = db.SetValue(rev, NewDate(time.Date(1986, 1, 1, 0, 0, 0, 0, time.UTC)))
	for _, f := range db.CompletenessOf(rev) {
		t.Errorf("unexpected finding after set: %v", f)
	}
}

func TestSchemaEvolution(t *testing.T) {
	db := memDB(t, Figure3Schema())
	alarms := create(t, db, "Data", "Alarms")
	if _, err := db.SaveVersion("before evolution"); err != nil {
		t.Fatal(err)
	}

	// Add a new class and a new sub-class.
	err := db.EvolveSchema(func(s *Schema) error {
		c, err := s.AddClass("Module")
		if err != nil {
			return err
		}
		if _, err := c.AddChild("Language", AtMostOne, KindString); err != nil {
			return err
		}
		thing, err := s.Class("Thing")
		if err != nil {
			return err
		}
		_, err = thing.AddChild("Author", AtMostOne, KindString)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if db.SchemaVersion() != 2 {
		t.Fatalf("schema version = %d", db.SchemaVersion())
	}
	// New categories usable immediately, existing data intact.
	mod := create(t, db, "Module", "Kernel")
	if _, err := db.CreateValueObject(mod, "Language", NewString("Go")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateValueObject(alarms, "Author", NewString("glinz")); err != nil {
		t.Fatal(err)
	}
	v2, err := db.SaveVersion("after evolution")
	if err != nil {
		t.Fatal(err)
	}

	// Old versions are interpreted under their old schema.
	infos := db.Versions()
	if infos[0].SchemaVersion != 1 || infos[1].SchemaVersion != 2 {
		t.Errorf("schema versions = %d, %d", infos[0].SchemaVersion, infos[1].SchemaVersion)
	}
	view1, err := db.VersionView(infos[0].Num)
	if err != nil {
		t.Fatal(err)
	}
	if view1.Schema().Version() != 1 {
		t.Errorf("1.0 view schema = %d", view1.Schema().Version())
	}
	view2, err := db.VersionView(v2)
	if err != nil {
		t.Fatal(err)
	}
	if view2.Schema().Version() != 2 {
		t.Errorf("2.0 view schema = %d", view2.Schema().Version())
	}

	// An evolution that would orphan existing data is rejected and rolled
	// back: adding a 0..0 cardinality class is fine, but we test via a
	// conflicting edit error.
	err = db.EvolveSchema(func(s *Schema) error {
		_, err := s.AddClass("Module") // duplicate
		return err
	})
	if err == nil {
		t.Error("bad evolution accepted")
	}
	if db.SchemaVersion() != 2 {
		t.Errorf("schema version after failed evolution = %d", db.SchemaVersion())
	}
	// The engine still works.
	if _, err := db.CreateObject("Module", "M2"); err != nil {
		t.Error(err)
	}
}

func TestTransactionsThroughFacade(t *testing.T) {
	db := memDB(t, Figure2Schema())
	tx, err := db.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.CreateObject("Data", "A"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.GetObject("A"); ok {
		t.Error("rolled-back object visible")
	}
	if tx, err = db.BeginTx(); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.CreateObject("Data", "B"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.GetObject("B"); !ok {
		t.Error("committed object missing")
	}
}

func TestClosedDatabase(t *testing.T) {
	db := memDB(t, Figure2Schema())
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateObject("Data", "X"); !errors.Is(err, ErrClosed) {
		t.Errorf("create on closed: %v", err)
	}
	if _, err := db.SaveVersion("x"); !errors.Is(err, ErrClosed) {
		t.Errorf("save on closed: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}
