package seed

import (
	"errors"
	"testing"

	"repro/internal/pattern"
)

// TestVirtualIDGuards: every mutating facade operation rejects virtual
// (inherited) item IDs with ErrInheritedData.
func TestVirtualIDGuards(t *testing.T) {
	db := memDB(t, Figure3Schema())
	po, _ := db.CreatePatternObject("Data", "PO")
	_, _ = db.CreateValueObject(po, "Description", NewString("x"))
	real := create(t, db, "Data", "Real")
	if _, err := db.Inherit(po, real); err != nil {
		t.Fatal(err)
	}
	virtual := db.View().Children(real, "Description")[0]
	if !pattern.IsVirtualID(virtual) {
		t.Fatal("expected a virtual child")
	}
	ops := map[string]error{
		"SetValue":     db.SetValue(virtual, NewString("y")),
		"Delete":       db.Delete(virtual),
		"Reclassify":   db.Reclassify(virtual, "Data"),
		"MarkPattern":  db.MarkPattern(virtual),
		"ClearPattern": db.ClearPattern(virtual),
		"CreateSub":    err2(db.CreateSubObject(virtual, "Text")),
		"CreateValue":  err2(db.CreateValueObject(virtual, "Text", Undefined)),
		"Inherit":      err2(db.Inherit(virtual, real)),
		"Relationship": err2(db.CreateRelationship("Access", map[string]ID{"from": virtual, "by": real})),
		"Disinherit":   db.Disinherit(virtual, real),
	}
	for name, err := range ops {
		if !errors.Is(err, ErrInheritedData) {
			t.Errorf("%s on virtual id: %v", name, err)
		}
	}
}

func err2[T any](_ T, err error) error { return err }

func TestSchemaAtBounds(t *testing.T) {
	db := memDB(t, Figure3Schema())
	if _, err := db.SchemaAt(0); err == nil {
		t.Error("SchemaAt(0) accepted")
	}
	if _, err := db.SchemaAt(2); err == nil {
		t.Error("SchemaAt(2) accepted on fresh db")
	}
	if s, err := db.SchemaAt(1); err != nil || s.Version() != 1 {
		t.Errorf("SchemaAt(1) = %v, %v", s, err)
	}
}

func TestOpenRejectsNonInitialSchema(t *testing.T) {
	evolved, err := Figure3Schema().Evolve()
	if err != nil {
		t.Fatal(err)
	}
	if err := evolved.Freeze(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewMemory(evolved); err == nil {
		t.Error("schema with version 2 accepted as initial")
	}
	unfrozen := NewSchema("X")
	if _, err := NewMemory(unfrozen); err == nil {
		t.Error("unfrozen schema accepted")
	}
}

func TestGetObjectAndOriginMisses(t *testing.T) {
	db := memDB(t, Figure3Schema())
	if _, ok := db.GetObject("Nope"); ok {
		t.Error("GetObject on missing name")
	}
	if _, _, _, ok := db.Origin(12345); ok {
		t.Error("Origin on real id")
	}
	if _, err := db.ResolvePath("No.Such.Path"); err == nil {
		t.Error("ResolvePath on missing path")
	}
	if _, err := db.ResolvePath("9bad"); err == nil {
		t.Error("ResolvePath on malformed path")
	}
}

func TestHistoryOfUnknownItem(t *testing.T) {
	db := memDB(t, Figure3Schema())
	create(t, db, "Action", "A")
	_, _ = db.SaveVersion("v")
	if got := db.HistoryOf(99999, nil); len(got) != 0 {
		t.Errorf("history of unknown item = %v", got)
	}
}

func TestVersionViewUnknown(t *testing.T) {
	db := memDB(t, Figure3Schema())
	if _, err := db.VersionView(VersionNumber{9, 9}); err == nil {
		t.Error("VersionView of unknown version accepted")
	}
	if err := db.SelectVersion(VersionNumber{9, 9}); err == nil {
		t.Error("SelectVersion of unknown version accepted")
	}
	if err := db.DeleteVersion(VersionNumber{9, 9}); err == nil {
		t.Error("DeleteVersion of unknown version accepted")
	}
}

func TestCompletenessOfVirtualContext(t *testing.T) {
	// Inherited items satisfy completeness of their inheritors: a pattern
	// provides the Revised 1..1 sub-object.
	db := memDB(t, Figure3Schema())
	po, _ := db.CreatePatternObject("Data", "PO")
	_, _ = db.CreateValueObject(po, "Revised", NewDate(fixedClock()()))
	real := create(t, db, "Data", "Real")
	hasRevisedFinding := func() bool {
		for _, f := range db.CompletenessOf(real) {
			if f.Rule == RuleMinChildren {
				return true
			}
		}
		return false
	}
	if !hasRevisedFinding() {
		t.Fatal("missing Revised not flagged before inherit")
	}
	if _, err := db.Inherit(po, real); err != nil {
		t.Fatal(err)
	}
	if hasRevisedFinding() {
		t.Error("inherited Revised does not satisfy completeness")
	}
}
