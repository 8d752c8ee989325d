package core

import (
	"testing"

	"repro/internal/value"
)

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
