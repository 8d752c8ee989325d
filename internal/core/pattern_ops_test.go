package core

import (
	"errors"
	"testing"

	"repro/internal/consistency"
	"repro/internal/item"
	"repro/internal/value"
)

func TestMarkPatternObject(t *testing.T) {
	en := newFig3(t)
	a := mustCreate(t, en, "Data", "A")
	text, _ := en.CreateSubObject(a, "Text")

	if err := en.MarkPattern(a); err != nil {
		t.Fatal(err)
	}
	// The whole subtree follows.
	o, _ := en.Object(a)
	c, _ := en.Object(text)
	if !o.Pattern || !c.Pattern {
		t.Error("pattern flag did not propagate to the subtree")
	}
	// Marking is idempotent.
	if err := en.MarkPattern(a); err != nil {
		t.Errorf("idempotent mark: %v", err)
	}
	// New sub-objects of a pattern are pattern items.
	sel, err := en.CreateSubObject(text, "Selector")
	if err != nil {
		t.Fatal(err)
	}
	so, _ := en.Object(sel)
	if !so.Pattern {
		t.Error("new sub-object of pattern is not a pattern")
	}
	// Clearing works while no inheritors exist.
	if err := en.ClearPattern(a); err != nil {
		t.Fatal(err)
	}
	o, _ = en.Object(a)
	so, _ = en.Object(sel)
	if o.Pattern || so.Pattern {
		t.Error("clear did not propagate")
	}
}

func TestMarkPatternRejectedWhileReferenced(t *testing.T) {
	en := newFig3(t)
	a := mustCreate(t, en, "Data", "A")
	h := mustCreate(t, en, "Action", "H")
	if _, err := en.CreateRelationship("Access", map[string]item.ID{"from": a, "by": h}); err != nil {
		t.Fatal(err)
	}
	// A normal relationship references A: marking A as a pattern would
	// leave a normal relationship pointing at a pattern.
	if err := en.MarkPattern(a); !errors.Is(err, consistency.ErrPatternRef) {
		t.Fatalf("mark with live normal relationship: %v", err)
	}
	o, _ := en.Object(a)
	if o.Pattern {
		t.Error("failed mark left the flag set")
	}
}

func TestClearPatternRejectedWithInheritors(t *testing.T) {
	en := newFig3(t)
	pat, _ := en.CreatePatternObject("Data", "PO")
	inh := mustCreate(t, en, "Data", "Real")
	if _, err := en.Inherit(pat, inh); err != nil {
		t.Fatal(err)
	}
	if err := en.ClearPattern(pat); !errors.Is(err, ErrHasInheritors) {
		t.Fatalf("clear with inheritors: %v", err)
	}
	// Sub-objects cannot be marked individually.
	text, _ := en.CreateSubObject(inh, "Text")
	if err := en.MarkPattern(text); !errors.Is(err, ErrPatternConflict) {
		t.Fatalf("mark sub-object: %v", err)
	}
}

// TestClearPatternRevalidatesSubtree: a pattern is exempt from cardinality
// checks, so it may hold more sub-objects than the schema allows; clearing it
// must re-check them instead of leaving normal data inconsistent.
func TestClearPatternRevalidatesSubtree(t *testing.T) {
	en := newFig3(t)
	p, _ := en.CreatePatternObject("Data", "P")
	for i := 0; i < 2; i++ {
		if _, err := en.CreateSubObject(p, "Revised"); err != nil {
			t.Fatal(err)
		}
	}
	if err := en.ClearPattern(p); !errors.Is(err, consistency.ErrMaxCard) {
		t.Fatalf("clear with two Revised sub-objects: %v, want ErrMaxCard", err)
	}
	if o, _ := en.Object(p); !o.Pattern {
		t.Error("the rejected clear left the flag cleared")
	}
}

func TestPatternRelationship(t *testing.T) {
	en := newFig3(t)
	alarms := mustCreate(t, en, "OutputData", "Alarms")
	s := mustCreate(t, en, "Action", "S")
	w, _ := en.CreateRelationship("Write", map[string]item.ID{"from": alarms, "by": s})
	n, _ := en.CreateValueObject(w, "NumberOfWrites", value.NewInteger(1))
	// A pattern relationship alone keeps a generation from serving
	// unspliced, in the patched generation and in a rebuild alike.
	patternFree := func(step string, want bool) {
		t.Helper()
		for name, v := range map[string]item.View{"frozen": en.FrozenView(), "rebuilt": en.FrozenViewRebuild()} {
			if got := v.(*colFrozen).PatternFree(); got != want {
				t.Errorf("%s: %s PatternFree() = %v, want %v", step, name, got, want)
			}
		}
	}
	patternFree("no pattern", true)

	// Mark the relationship itself as a pattern (a template access).
	if err := en.MarkPattern(w); err != nil {
		t.Fatal(err)
	}
	patternFree("pattern relationship", false)
	r, _ := en.Relationship(w)
	no, _ := en.Object(n)
	if !r.Pattern || !no.Pattern {
		t.Error("relationship pattern flag did not propagate to attributes")
	}
	// Pattern relationships do not count toward cardinalities: the Write
	// max is unlimited here, but participation counting must exclude it.
	v := en.View()
	write := en.Schema().MustAssociation("Write")
	if got := consistency.CountParticipation(v, alarms, write, "from"); got != 0 {
		t.Errorf("pattern relationship counted: %d", got)
	}
	if err := en.ClearPattern(w); err != nil {
		t.Fatal(err)
	}
	r, _ = en.Relationship(w)
	if r.Pattern {
		t.Error("relationship clear failed")
	}
	patternFree("pattern cleared", true)
	acc, err := en.CreateRelationship("Access", map[string]item.ID{"from": alarms, "by": mustCreate(t, en, "Action", "S2")})
	if err != nil {
		t.Fatal(err)
	}
	if err := en.MarkPattern(acc); err != nil {
		t.Fatal(err)
	}
	patternFree("pattern relationship without attributes", false)
	if err := en.ClearPattern(acc); err != nil {
		t.Fatal(err)
	}
	patternFree("cleared again", true)
	// Inherits-relationships cannot be patterns.
	pat, _ := en.CreatePatternObject("Action", "PO")
	inh := mustCreate(t, en, "Action", "I")
	link, _ := en.Inherit(pat, inh)
	if err := en.MarkPattern(link); !errors.Is(err, ErrPatternConflict) {
		t.Fatalf("mark inherits-relationship: %v", err)
	}
}

func TestCreateValueObjectAtomicity(t *testing.T) {
	en := newFig3(t)
	a := mustCreate(t, en, "Data", "A")
	// Wrong value kind: the sub-object creation must be rolled back too.
	before := len(en.View().Children(a, "Description"))
	if _, err := en.CreateValueObject(a, "Description", value.NewInteger(7)); err == nil {
		t.Fatal("wrong-kind value accepted")
	}
	if after := len(en.View().Children(a, "Description")); after != before {
		t.Errorf("orphan sub-object left behind: %d -> %d", before, after)
	}
}

func TestDisinheritRemovesSplice(t *testing.T) {
	en := newFig3(t)
	pat, _ := en.CreatePatternObject("Data", "PO")
	_, _ = en.CreateValueObject(pat, "Description", value.NewString("x"))
	inh := mustCreate(t, en, "Data", "Real")
	link, err := en.Inherit(pat, inh)
	if err != nil {
		t.Fatal(err)
	}
	// Deleting the inherits-relationship is the disinherit operation.
	if err := en.Delete(link); err != nil {
		t.Fatal(err)
	}
	// The pattern can now be cleared or deleted.
	if err := en.Delete(pat); err != nil {
		t.Errorf("delete pattern after disinherit: %v", err)
	}
}
