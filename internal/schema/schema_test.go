package schema

import (
	"errors"
	"testing"

	"repro/internal/value"
)

func TestCardinalityParse(t *testing.T) {
	cases := []struct {
		in   string
		want Cardinality
	}{
		{"0..16", Card(0, 16)},
		{"1..*", AtLeastOne},
		{"0..1", AtMostOne},
		{"1..1", ExactlyOne},
		{"0..*", Any},
	}
	for _, c := range cases {
		got, err := ParseCardinality(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseCardinality(%q) = %v, %v", c.in, got, err)
		}
		if got.String() != c.in {
			t.Errorf("String round trip of %q = %q", c.in, got.String())
		}
	}
	for _, s := range []string{"", "1", "..", "a..b", "-1..2", "2..1", "1..-3", "1.*"} {
		if _, err := ParseCardinality(s); err == nil {
			t.Errorf("ParseCardinality(%q) succeeded", s)
		}
	}
}

func TestCardinalityChecks(t *testing.T) {
	c := Card(1, 3)
	if !c.AllowsCount(3) || c.AllowsCount(4) {
		t.Error("AllowsCount boundary wrong")
	}
	if c.SatisfiedBy(0) || !c.SatisfiedBy(1) {
		t.Error("SatisfiedBy boundary wrong")
	}
	if !Any.AllowsCount(1 << 20) {
		t.Error("unlimited max should allow any count")
	}
	if Card(2, Unbounded).Check() != nil {
		t.Error("n..* should be valid")
	}
	if Card(3, 2).Check() == nil {
		t.Error("max < min should be invalid")
	}
}

func TestFigure2Structure(t *testing.T) {
	s := Figure2()
	if !s.Frozen() {
		t.Fatal("Figure2 not frozen")
	}
	if s.Version() != 1 {
		t.Errorf("version = %d", s.Version())
	}
	for _, q := range []string{"Data", "Data.Text", "Data.Text.Body", "Data.Text.Body.Keywords", "Data.Text.Selector", "Data.Contents", "Action", "Action.Description"} {
		if _, err := s.Class(q); err != nil {
			t.Errorf("missing class %q: %v", q, err)
		}
	}
	text := s.MustClass("Data.Text")
	if text.Cardinality() != Card(0, 16) {
		t.Errorf("Data.Text cardinality = %v, want 0..16", text.Cardinality())
	}
	kw := s.MustClass("Data.Text.Body.Keywords")
	if kw.ValueKind() != value.KindString || !kw.HasValue() {
		t.Errorf("Keywords value kind = %v", kw.ValueKind())
	}
	read := s.MustAssociation("Read")
	from, err := read.Role("from")
	if err != nil || from.Card != AtLeastOne {
		t.Errorf("Read.from = %+v, %v", from, err)
	}
	contained := s.MustAssociation("Contained")
	if !contained.Acyclic() {
		t.Error("Contained must be ACYCLIC")
	}
	cr, _ := contained.Role("contained")
	if cr.Card != AtMostOne {
		t.Errorf("Contained.contained cardinality = %v, want 0..1", cr.Card)
	}
}

func TestFigure3Generalization(t *testing.T) {
	s := Figure3()
	thing := s.MustClass("Thing")
	data := s.MustClass("Data")
	input := s.MustClass("InputData")
	output := s.MustClass("OutputData")
	action := s.MustClass("Action")

	if !data.IsA(thing) || !input.IsA(data) || !input.IsA(thing) || !action.IsA(thing) {
		t.Error("is-a chain broken")
	}
	if thing.IsA(data) || input.IsA(output) {
		t.Error("is-a should not hold in reverse or across siblings")
	}
	if input.Root() != thing || thing.Root() != thing {
		t.Error("Root broken")
	}
	if !thing.Covering() {
		t.Error("Thing must be covering")
	}
	fam := thing.Family()
	if len(fam) != 5 {
		t.Errorf("Thing family size = %d, want 5", len(fam))
	}
	chain := input.GeneralizationChain()
	if len(chain) != 3 || chain[0] != input || chain[2] != thing {
		t.Errorf("chain = %v", chain)
	}

	access := s.MustAssociation("Access")
	read := s.MustAssociation("Read")
	write := s.MustAssociation("Write")
	if !read.IsA(access) || !write.IsA(access) || read.IsA(write) {
		t.Error("association is-a broken")
	}
	if !access.Covering() {
		t.Error("Access must be covering")
	}
	if got := len(access.Family()); got != 3 {
		t.Errorf("Access family = %d, want 3", got)
	}
	// Cardinalities differ between general and specialized associations.
	ab, _ := access.Role("by")
	rb, _ := read.Role("by")
	if ab.Card != AtLeastOne || rb.Card != Any {
		t.Errorf("Access.by = %v, Read.by = %v", ab.Card, rb.Card)
	}
}

func TestResolveChildViaGeneralization(t *testing.T) {
	s := Figure3()
	data := s.MustClass("Data")
	// 'Revised' is declared on Thing; Data inherits it.
	rev, err := data.ResolveChild("Revised")
	if err != nil {
		t.Fatalf("ResolveChild(Revised): %v", err)
	}
	if rev.ValueKind() != value.KindDate {
		t.Errorf("Revised kind = %v", rev.ValueKind())
	}
	// Own child still resolves.
	if _, err := data.ResolveChild("Text"); err != nil {
		t.Errorf("ResolveChild(Text): %v", err)
	}
	// Unknown role fails.
	if _, err := data.ResolveChild("Nope"); err == nil {
		t.Error("ResolveChild(Nope) should fail")
	}
	// AllChildren merges own and inherited.
	all := data.AllChildren()
	names := map[string]bool{}
	for _, c := range all {
		names[c.Name()] = true
	}
	for _, want := range []string{"Text", "Description", "Revised"} {
		if !names[want] {
			t.Errorf("AllChildren missing %q (got %v)", want, names)
		}
	}
}

func TestAssociationAttributesAndRoleInheritance(t *testing.T) {
	s := Figure3()
	write := s.MustAssociation("Write")
	now, err := write.ResolveChild("NumberOfWrites")
	if err != nil || now.ValueKind() != value.KindInteger {
		t.Fatalf("Write.NumberOfWrites: %v %v", now, err)
	}
	if now.Owner() != write || now.Parent() != nil {
		t.Error("attribute class owner wiring broken")
	}
	if now.QualifiedName() != "Write.NumberOfWrites" {
		t.Errorf("qualified name = %q", now.QualifiedName())
	}
	// Role resolution falls back to the general association.
	access := s.MustAssociation("Access")
	if _, err := access.Role("from"); err != nil {
		t.Error("Access.from missing")
	}
}

func TestRoleAccepts(t *testing.T) {
	s := Figure3()
	access := s.MustAssociation("Access")
	from, _ := access.Role("from")
	if !from.Accepts(s.MustClass("Data")) {
		t.Error("Access.from should accept Data")
	}
	if !from.Accepts(s.MustClass("OutputData")) {
		t.Error("Access.from should accept OutputData (specialization)")
	}
	if from.Accepts(s.MustClass("Action")) {
		t.Error("Access.from should reject Action")
	}
	if from.Accepts(s.MustClass("Thing")) {
		t.Error("Access.from should reject the more general Thing")
	}
	write := s.MustAssociation("Write")
	wf, _ := write.Role("from")
	if wf.Accepts(s.MustClass("InputData")) {
		t.Error("Write.from should reject InputData")
	}
}

func TestBuilderErrors(t *testing.T) {
	s := New("T")
	if _, err := s.AddClass("9bad"); err == nil {
		t.Error("bad class name accepted")
	}
	c, err := s.AddClass("C")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddClass("C"); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate class: %v", err)
	}
	v, err := c.AddChild("V", ExactlyOne, value.KindString)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.AddChild("X", Any, value.KindNone); !errors.Is(err, ErrValueClass) {
		t.Errorf("child under value class: %v", err)
	}
	if _, err := c.AddChild("V", Any, value.KindNone); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate child: %v", err)
	}
	if _, err := c.AddChild("W", Card(3, 2), value.KindNone); !errors.Is(err, ErrBadCardinality) {
		t.Errorf("bad cardinality: %v", err)
	}

	a, err := s.AddAssociation("A")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddAssociation("A"); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate assoc: %v", err)
	}
	if _, err := a.AddRole("r", nil, Any); !errors.Is(err, ErrBadDefinition) {
		t.Errorf("nil role class: %v", err)
	}
	if _, err := a.AddRole("r", c, Any); err != nil {
		t.Fatal(err)
	}
	if _, err := a.AddRole("r", c, Any); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate role: %v", err)
	}
}

func TestGeneralizationErrors(t *testing.T) {
	s := New("T")
	a, _ := s.AddClass("A")
	b, _ := s.AddClass("B")
	c, _ := s.AddClass("C")
	if err := b.Specialize(a); err != nil {
		t.Fatal(err)
	}
	if err := c.Specialize(b); err != nil {
		t.Fatal(err)
	}
	if err := a.Specialize(c); !errors.Is(err, ErrBadGeneralize) {
		t.Errorf("cycle not rejected: %v", err)
	}
	if err := b.Specialize(c); !errors.Is(err, ErrBadGeneralize) {
		t.Errorf("double specialization not rejected: %v", err)
	}
	if err := a.Specialize(a); !errors.Is(err, ErrBadGeneralize) {
		t.Errorf("self specialization not rejected: %v", err)
	}
	// Dependent classes cannot be generalized.
	d, _ := a.AddChild("D", Any, value.KindNone)
	e, _ := s.AddClass("E")
	if err := d.Specialize(e); !errors.Is(err, ErrBadGeneralize) {
		t.Errorf("dependent class generalization not rejected: %v", err)
	}
}

func TestAssociationSpecializeConformance(t *testing.T) {
	s := New("T")
	thing, _ := s.AddClass("Thing")
	data, _ := s.AddClass("Data")
	_ = data.Specialize(thing)
	other, _ := s.AddClass("Other")

	gen, _ := s.AddAssociation("Gen")
	_, _ = gen.AddRole("x", thing, Any)
	_, _ = gen.AddRole("y", thing, Any)

	okA, _ := s.AddAssociation("Ok")
	_, _ = okA.AddRole("x", data, Any)
	_, _ = okA.AddRole("y", thing, Any)
	if err := okA.Specialize(gen); err != nil {
		t.Errorf("conformant specialization rejected: %v", err)
	}

	badRole, _ := s.AddAssociation("BadRole")
	_, _ = badRole.AddRole("z", data, Any)
	_, _ = badRole.AddRole("y", thing, Any)
	if err := badRole.Specialize(gen); !errors.Is(err, ErrBadGeneralize) {
		t.Errorf("unknown role name accepted: %v", err)
	}

	badClass, _ := s.AddAssociation("BadClass")
	_, _ = badClass.AddRole("x", other, Any)
	_, _ = badClass.AddRole("y", thing, Any)
	if err := badClass.Specialize(gen); !errors.Is(err, ErrBadGeneralize) {
		t.Errorf("non-conformant role class accepted: %v", err)
	}
}

func TestFreezeValidation(t *testing.T) {
	// Covering without specializations fails.
	s := New("T")
	c, _ := s.AddClass("C")
	_ = c.SetCovering(true)
	d, _ := s.AddClass("D")
	a, _ := s.AddAssociation("A")
	_, _ = a.AddRole("x", c, Any)
	_, _ = a.AddRole("y", d, Any)
	if err := s.Freeze(); !errors.Is(err, ErrCoveringLeaves) {
		t.Errorf("covering leaf class accepted: %v", err)
	}

	// Association with fewer than two roles fails.
	s2 := New("T2")
	c2, _ := s2.AddClass("C")
	a2, _ := s2.AddAssociation("A")
	_, _ = a2.AddRole("x", c2, Any)
	if err := s2.Freeze(); !errors.Is(err, ErrBadDefinition) {
		t.Errorf("unary association accepted: %v", err)
	}

	// ACYCLIC across different class families fails.
	s3 := New("T3")
	c3, _ := s3.AddClass("C")
	d3, _ := s3.AddClass("D")
	a3, _ := s3.AddAssociation("A")
	_, _ = a3.AddRole("x", c3, Any)
	_, _ = a3.AddRole("y", d3, Any)
	_ = a3.SetAcyclic(true)
	if err := s3.Freeze(); !errors.Is(err, ErrAcyclicBinary) {
		t.Errorf("cross-family ACYCLIC accepted: %v", err)
	}
}

func TestFrozenImmutability(t *testing.T) {
	s := Figure2()
	if _, err := s.AddClass("New"); !errors.Is(err, ErrFrozen) {
		t.Errorf("AddClass on frozen: %v", err)
	}
	data := s.MustClass("Data")
	if _, err := data.AddChild("X", Any, value.KindNone); !errors.Is(err, ErrFrozen) {
		t.Errorf("AddChild on frozen: %v", err)
	}
	read := s.MustAssociation("Read")
	if err := read.SetAcyclic(true); !errors.Is(err, ErrFrozen) {
		t.Errorf("SetAcyclic on frozen: %v", err)
	}
	if err := read.AttachProcedure("p"); !errors.Is(err, ErrFrozen) {
		t.Errorf("AttachProcedure on frozen: %v", err)
	}
}

func TestEvolve(t *testing.T) {
	s := Figure3()
	next, err := s.Evolve()
	if err != nil {
		t.Fatal(err)
	}
	if next.Version() != s.Version()+1 {
		t.Errorf("evolved version = %d", next.Version())
	}
	if next.Frozen() {
		t.Error("evolved schema should be mutable")
	}
	// The clone is structurally equivalent...
	if len(next.ClassNames()) != len(s.ClassNames()) {
		t.Errorf("class count: %d vs %d", len(next.ClassNames()), len(s.ClassNames()))
	}
	for _, name := range s.ClassNames() {
		if _, err := next.Class(name); err != nil {
			t.Errorf("evolved schema lost class %q", name)
		}
	}
	// ...including generalization and role wiring.
	nd := next.MustClass("Data")
	nt := next.MustClass("Thing")
	if !nd.IsA(nt) {
		t.Error("evolved is-a broken")
	}
	nw := next.MustAssociation("Write")
	na := next.MustAssociation("Access")
	if !nw.IsA(na) {
		t.Error("evolved association is-a broken")
	}
	wf, err := nw.Role("from")
	if err != nil || wf.Class() != next.MustClass("OutputData") {
		t.Errorf("evolved role class: %v %v", wf, err)
	}
	if !next.MustAssociation("Contained").Acyclic() {
		t.Error("evolved ACYCLIC lost")
	}
	if _, err := nw.ResolveChild("NumberOfWrites"); err != nil {
		t.Errorf("evolved attribute class lost: %v", err)
	}

	// Mutating the evolved schema leaves the original untouched.
	if _, err := next.AddClass("Extra"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Class("Extra"); err == nil {
		t.Error("original schema sees evolved mutation")
	}
	if err := next.Freeze(); err != nil {
		t.Fatal(err)
	}
	// Evolving an unfrozen schema fails.
	raw := New("Raw")
	if _, err := raw.Evolve(); !errors.Is(err, ErrNotFrozen) {
		t.Errorf("Evolve on unfrozen: %v", err)
	}
}

func TestAttachedProcedureNames(t *testing.T) {
	s := New("T")
	c, _ := s.AddClass("C")
	if err := c.AttachProcedure("checkDeadline"); err != nil {
		t.Fatal(err)
	}
	if err := c.AttachProcedure("9bad"); err == nil {
		t.Error("bad procedure name accepted")
	}
	if got := c.Procedures(); len(got) != 1 || got[0] != "checkDeadline" {
		t.Errorf("Procedures = %v", got)
	}
}

// TestQualifiedNameStoredAtBuild requires every class's qualified name —
// top-level, dependent, attribute, and in an evolved clone — to equal the
// dotted path of its containment chain, and reading it to allocate nothing.
func TestQualifiedNameStoredAtBuild(t *testing.T) {
	s := Figure3()
	next, err := s.Evolve()
	if err != nil {
		t.Fatal(err)
	}
	chain := func(c *Class) string {
		name := c.Name()
		for ; c.Parent() != nil; c = c.Parent() {
			name = c.Parent().Name() + "." + name
		}
		if c.Owner() != nil {
			name = c.Owner().Name() + "." + name
		}
		return name
	}
	for _, sch := range []*Schema{s, next} {
		for _, name := range sch.ClassNames() {
			c := sch.MustClass(name)
			if got := c.QualifiedName(); got != name || got != chain(c) {
				t.Errorf("v%d: QualifiedName = %q, registered as %q, chain %q", sch.Version(), got, name, chain(c))
			}
		}
	}
	for _, name := range []string{"Write.NumberOfWrites", "Data.Text.Body.Keywords"} {
		if _, err := s.Class(name); err != nil {
			t.Fatalf("figure 3 lacks %s: %v", name, err)
		}
	}
	kw := s.MustClass("Data.Text.Body.Keywords")
	if n := testing.AllocsPerRun(100, func() { _ = kw.QualifiedName() }); n != 0 {
		t.Errorf("QualifiedName allocates %.0f times per call, want 0", n)
	}
}
