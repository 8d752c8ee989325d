package pattern_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/item"
	"repro/internal/pattern"
	"repro/internal/schema"
	"repro/internal/value"
)

func engine(t *testing.T) *core.Engine {
	t.Helper()
	en, err := core.NewEngine(schema.Figure3())
	if err != nil {
		t.Fatal(err)
	}
	return en
}

func TestVirtualIDRange(t *testing.T) {
	if pattern.IsVirtualID(1) || pattern.IsVirtualID(1<<40) {
		t.Error("real ids classified virtual")
	}
	if !pattern.IsVirtualID(pattern.VirtualBase) || !pattern.IsVirtualID(pattern.VirtualBase+5) {
		t.Error("virtual ids not classified")
	}
}

func TestLinksBookkeeping(t *testing.T) {
	en := engine(t)
	pat, _ := en.CreatePatternObject("Action", "PO")
	a, _ := en.CreateObject("Action", "A")
	b, _ := en.CreateObject("Action", "B")
	if _, err := en.Inherit(pat, a); err != nil {
		t.Fatal(err)
	}
	if _, err := en.Inherit(pat, b); err != nil {
		t.Fatal(err)
	}
	v := en.View()
	inh := pattern.InheritorsOf(v, pat)
	if len(inh) != 2 || inh[0] != a || inh[1] != b {
		t.Errorf("inheritors = %v", inh)
	}
	if got := pattern.PatternsOf(v, a); len(got) != 1 || got[0] != pat {
		t.Errorf("patterns of a = %v", got)
	}
	if got := pattern.PatternsOf(v, pat); len(got) != 0 {
		t.Errorf("patterns of pattern = %v", got)
	}
	// Duplicate inherit rejected.
	if _, err := en.Inherit(pat, a); err == nil {
		t.Error("duplicate inherit accepted")
	}
	// Inheriting a non-pattern rejected.
	if _, err := en.Inherit(a, b); err == nil {
		t.Error("inherit from non-pattern accepted")
	}
	// Pattern inheriting a pattern rejected (inheritor must be normal).
	pat2, _ := en.CreatePatternObject("Action", "PO2")
	if _, err := en.Inherit(pat, pat2); err == nil {
		t.Error("pattern inheriting pattern accepted")
	}
}

func TestSplicedHidesAndProjects(t *testing.T) {
	en := engine(t)
	pat, _ := en.CreatePatternObject("Data", "PO")
	text, _ := en.CreateSubObject(pat, "Text")
	_, _ = en.CreateValueObject(text, "Selector", value.NewString("inherited!"))
	inh, _ := en.CreateObject("Data", "Real")
	_, _ = en.Inherit(pat, inh)

	sp := pattern.NewSpliced(en.View())

	// The pattern and its subtree are hidden.
	if _, ok := sp.Object(pat); ok {
		t.Error("pattern visible in spliced view")
	}
	if _, ok := sp.Object(text); ok {
		t.Error("pattern child visible in spliced view")
	}
	if _, ok := sp.ObjectByName("PO"); ok {
		t.Error("pattern resolvable by name")
	}

	// The inheritor shows virtual projections of the whole subtree.
	texts := sp.Children(inh, "Text")
	if len(texts) != 1 || !pattern.IsVirtualID(texts[0]) {
		t.Fatalf("spliced children = %v", texts)
	}
	vt, ok := sp.Object(texts[0])
	if !ok || vt.Parent != inh || vt.Pattern {
		t.Errorf("virtual text = %+v", vt)
	}
	sels := sp.Children(texts[0], "Selector")
	if len(sels) != 1 {
		t.Fatalf("nested virtual children = %v", sels)
	}
	vs, _ := sp.Object(sels[0])
	if vs.Value.Str() != "inherited!" {
		t.Errorf("virtual value = %q", vs.Value)
	}
	// Provenance.
	org, ok := sp.Origin(sels[0])
	if !ok || org.Inheritor != inh || org.Pattern != pat {
		t.Errorf("origin = %+v", org)
	}
	// Path resolution through the splice.
	id, ok := item.Resolve(sp, ident.MustParsePath("Real.Text[0].Selector"))
	if !ok || id != sels[0] {
		t.Errorf("Resolve through splice = %v %v", id, ok)
	}
	// Objects() enumerates base + virtual.
	objs := sp.Objects()
	virtuals := 0
	for _, id := range objs {
		if pattern.IsVirtualID(id) {
			virtuals++
		}
	}
	if virtuals != 2 {
		t.Errorf("virtual objects enumerated = %d", virtuals)
	}
}

func TestSplicedRelationships(t *testing.T) {
	en := engine(t)
	common, _ := en.CreateObject("Data", "Common")
	pat, _ := en.CreatePatternObject("Action", "PO")
	prel, _ := en.CreateRelationship("Access", map[string]item.ID{"from": common, "by": pat})
	inh, _ := en.CreateObject("Action", "Inh")
	_, _ = en.Inherit(pat, inh)

	sp := pattern.NewSpliced(en.View())
	// The pattern relationship itself is hidden...
	if _, ok := sp.Relationship(prel); ok {
		t.Error("pattern relationship visible")
	}
	// ...but a virtual projection appears on both the inheritor and the
	// common part.
	ri := sp.RelationshipsOf(inh)
	rc := sp.RelationshipsOf(common)
	if len(ri) != 1 || len(rc) != 1 || ri[0] != rc[0] {
		t.Fatalf("spliced rels: inh=%v common=%v", ri, rc)
	}
	vr, ok := sp.Relationship(ri[0])
	if !ok || vr.End("by") != inh || vr.End("from") != common {
		t.Errorf("virtual rel ends = %+v", vr.Ends)
	}
	// Relationship between two patterns is not projected while the other
	// end stays a pattern.
	pat2, _ := en.CreatePatternObject("Data", "PO2")
	_, err := en.CreateRelationship("Access", map[string]item.ID{"from": pat2, "by": pat})
	if err != nil {
		t.Fatal(err)
	}
	sp = pattern.NewSpliced(en.View())
	if got := len(sp.RelationshipsOf(inh)); got != 1 {
		t.Errorf("pattern-to-pattern rel leaked: %d", got)
	}
}

func TestValidateInheritorCardinality(t *testing.T) {
	en := engine(t)
	pat, _ := en.CreatePatternObject("Data", "PO")
	_, _ = en.CreateValueObject(pat, "Revised",
		value.NewDate(time.Date(1986, 1, 1, 0, 0, 0, 0, time.UTC)))
	inh, _ := en.CreateObject("Data", "Real")
	_, _ = en.CreateValueObject(inh, "Revised",
		value.NewDate(time.Date(1986, 2, 2, 0, 0, 0, 0, time.UTC)))

	// Manually splice: the combination violates Revised 1..1.
	sp := pattern.NewSpliced(en.View())
	if err := sp.ValidateInheritor(inh); err == nil {
		// no inherits-relationship yet, so nothing to validate
	} else {
		t.Fatalf("unexpected: %v", err)
	}
	// The engine refuses the Inherit because of the very violation.
	if _, err := en.Inherit(pat, inh); err == nil {
		t.Fatal("over-full inherit accepted by engine")
	}
}

// TestSplicedChildrenSharesBase pins the allocation-free Children: a parent
// without spliced sub-objects in the role gets the frozen base's own slice,
// and a virtual parent its spliced list, neither copied per call.
func TestSplicedChildrenSharesBase(t *testing.T) {
	en := engine(t)
	pat, _ := en.CreatePatternObject("Data", "PO")
	ptext, _ := en.CreateSubObject(pat, "Text")
	_, _ = en.CreateValueObject(ptext, "Selector", value.NewString("inherited"))
	plain, _ := en.CreateObject("Data", "Plain")
	_, _ = en.CreateSubObject(plain, "Text")
	_, _ = en.CreateValueObject(plain, "Description", value.NewString("d"))
	inh, _ := en.CreateObject("Data", "Real")
	_, _ = en.CreateValueObject(inh, "Description", value.NewString("r"))
	if _, err := en.Inherit(pat, inh); err != nil {
		t.Fatal(err)
	}
	base := en.FrozenView()
	sp := pattern.NewSpliced(base)
	vtexts := sp.Children(inh, "Text")
	if len(vtexts) != 1 || !pattern.IsVirtualID(vtexts[0]) {
		t.Fatalf("spliced Text children of the inheritor = %v", vtexts)
	}
	cases := []struct {
		name   string
		parent item.ID
		role   string
		shared []item.ID // the base slice the result must be; nil: a spliced list
	}{
		{"plain parent, one role", plain, "Text", base.Children(plain, "Text")},
		{"plain parent, all roles", plain, "", base.Children(plain, "")},
		{"inheritor, role without spliced children", inh, "Description", base.Children(inh, "Description")},
		{"inheritor, role with only spliced children", inh, "Text", nil},
		{"virtual parent", vtexts[0], "Selector", nil},
	}
	for _, c := range cases {
		got := sp.Children(c.parent, c.role)
		if len(got) == 0 {
			t.Fatalf("%s: no children", c.name)
		}
		//lint:ignore frozenmut identity check: the addresses are compared, never written through
		if c.shared != nil && &got[0] != &c.shared[0] {
			t.Errorf("%s: Children copied the base slice", c.name)
		}
		if n := testing.AllocsPerRun(100, func() { sp.Children(c.parent, c.role) }); n != 0 {
			t.Errorf("%s: Children allocates %.0f times per call, want 0", c.name, n)
		}
	}
}
