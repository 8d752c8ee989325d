package version

import (
	"errors"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/item"
	"repro/internal/schema"
	"repro/internal/value"
)

func frozenObj(sch *schema.Schema, id item.ID, name, val string, deleted bool) Frozen {
	cls := sch.MustClass("Data")
	return Frozen{
		Kind: item.KindObject,
		Obj: item.Object{
			ID: id, Class: cls, Name: name, Index: item.NoIndex,
			Value: value.Undefined, Deleted: deleted,
		},
	}
}

func at(n int) time.Time {
	return time.Date(1986, 2, 5, 12, n, 0, 0, time.UTC)
}

func TestTrunkNumbering(t *testing.T) {
	sch := schema.Figure2()
	m := NewManager()
	if got := m.NextNumber().String(); got != "1.0" {
		t.Fatalf("first number = %s", got)
	}
	n1, err := m.Freeze([]Frozen{frozenObj(sch, 1, "A", "", false)}, "one", 1, at(1))
	if err != nil {
		t.Fatal(err)
	}
	if n1.Num.String() != "1.0" || m.Base() != n1 {
		t.Fatalf("n1 = %s base=%v", n1.Num, m.Base())
	}
	n2, _ := m.Freeze([]Frozen{frozenObj(sch, 2, "B", "", false)}, "two", 1, at(2))
	if n2.Num.String() != "2.0" || n2.Parent() != n1 {
		t.Fatalf("n2 = %s parent=%v", n2.Num, n2.Parent())
	}
	n3, _ := m.Freeze(nil, "empty", 1, at(3))
	if n3.Num.String() != "3.0" {
		t.Fatalf("n3 = %s", n3.Num)
	}
	if m.Count() != 3 {
		t.Errorf("count = %d", m.Count())
	}
}

func TestBranchNumbering(t *testing.T) {
	sch := schema.Figure2()
	m := NewManager()
	n1, _ := m.Freeze([]Frozen{frozenObj(sch, 1, "A", "", false)}, "1", 1, at(1))
	_, _ = m.Freeze([]Frozen{frozenObj(sch, 2, "B", "", false)}, "2", 1, at(2))

	// Select 1.0, freeze -> first alternative.
	if _, err := m.Select(n1.Num); err != nil {
		t.Fatal(err)
	}
	a1, _ := m.Freeze(nil, "alt1", 1, at(3))
	if a1.Num.String() != "1.0.1.0" {
		t.Fatalf("alt1 = %s", a1.Num)
	}
	// Continue the alternative line.
	a2, _ := m.Freeze(nil, "alt1 step", 1, at(4))
	if a2.Num.String() != "1.0.1.1" {
		t.Fatalf("alt1 step = %s", a2.Num)
	}
	// Second alternative off 1.0.
	_, _ = m.Select(n1.Num)
	b1, _ := m.Freeze(nil, "alt2", 1, at(5))
	if b1.Num.String() != "1.0.2.0" {
		t.Fatalf("alt2 = %s", b1.Num)
	}
	// Branch off a branch.
	_, _ = m.Select(a1.Num)
	c1, _ := m.Freeze(nil, "nested", 1, at(6))
	if c1.Num.String() != "1.0.1.0.1.0" {
		t.Fatalf("nested = %s", c1.Num)
	}
}

func TestMaterializeOverwrites(t *testing.T) {
	sch := schema.Figure2()
	m := NewManager()
	_, _ = m.Freeze([]Frozen{
		frozenObj(sch, 1, "A", "", false),
		frozenObj(sch, 2, "B", "", false),
	}, "base", 1, at(1))
	// Second version deletes B and adds C.
	_, _ = m.Freeze([]Frozen{
		frozenObj(sch, 2, "B", "", true),
		frozenObj(sch, 3, "C", "", false),
	}, "next", 1, at(2))

	objs1, rels1, err := m.Materialize(ident.MustParseVersion("1.0"))
	if err != nil {
		t.Fatal(err)
	}
	if len(objs1)+len(rels1) != 2 || objs1[1].Deleted {
		t.Errorf("1.0 state wrong: %v", objs1)
	}
	objs2, rels2, _ := m.Materialize(ident.MustParseVersion("2.0"))
	if len(objs2)+len(rels2) != 3 {
		t.Fatalf("2.0 size = %d", len(objs2)+len(rels2))
	}
	if !objs2[1].Deleted {
		t.Error("deletion record not visible in 2.0")
	}
	// The view hides the deleted item.
	v := mustFreeze(t, sch, objs2, rels2)
	if _, ok := v.Object(2); ok {
		t.Error("deleted object visible in view")
	}
	if _, ok := v.ObjectByName("A"); !ok {
		t.Error("A missing in view")
	}
	if got := len(v.Objects()); got != 2 {
		t.Errorf("view objects = %d", got)
	}
	if _, _, err := m.Materialize(ident.MustParseVersion("9.9")); !errors.Is(err, ErrUnknownVersion) {
		t.Errorf("unknown version: %v", err)
	}
}

// mustFreeze builds a version's view the way the database's cold path does.
func mustFreeze(t *testing.T, sch *schema.Schema, objs []item.Object, rels []item.Relationship) item.View {
	t.Helper()
	v, err := core.FreezeItems(sch, nil, objs, rels)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestDeleteRules(t *testing.T) {
	sch := schema.Figure2()
	m := NewManager()
	n1, _ := m.Freeze([]Frozen{frozenObj(sch, 1, "A", "", false)}, "1", 1, at(1))
	n2, _ := m.Freeze(nil, "2", 1, at(2))
	if _, err := m.Delete(n1.Num); !errors.Is(err, ErrNotLeaf) {
		t.Errorf("delete non-leaf: %v", err)
	}
	if _, err := m.Delete(n2.Num); !errors.Is(err, ErrIsBase) {
		t.Errorf("delete base: %v", err)
	}
	_, _ = m.Select(n1.Num)
	if _, err := m.Delete(n2.Num); err != nil {
		t.Errorf("delete leaf: %v", err)
	}
	if m.Count() != 1 {
		t.Errorf("count after delete = %d", m.Count())
	}
	// Deleted number can be reused by the next freeze on the line.
	nn, _ := m.Freeze(nil, "redo", 1, at(3))
	if nn.Num.String() != "2.0" {
		t.Errorf("reused number = %s", nn.Num)
	}
}

func TestVersionsOfWithPrefix(t *testing.T) {
	sch := schema.Figure2()
	m := NewManager()
	_, _ = m.Freeze([]Frozen{frozenObj(sch, 7, "X", "", false)}, "1", 1, at(1))
	_, _ = m.Freeze([]Frozen{frozenObj(sch, 7, "X", "", false)}, "2", 1, at(2))
	_, _ = m.Freeze(nil, "3", 1, at(3))

	all := m.VersionsOf(7, nil)
	if len(all) != 2 {
		t.Fatalf("all versions of 7 = %d", len(all))
	}
	from2 := m.VersionsOf(7, ident.MustParseVersion("2.0"))
	if len(from2) != 1 || from2[0].Num.String() != "2.0" {
		t.Errorf("from 2.0 = %v", from2)
	}
	if got := m.VersionsOf(99, nil); len(got) != 0 {
		t.Errorf("unknown item versions = %v", got)
	}
}

// codecTree builds the version tree the codec tests encode: a trunk of two
// versions, the first with an object and a relationship in its delta, and
// an alternative off the first.
func codecTree(sch *schema.Schema) (m *Manager, n1, alt *Node) {
	m = NewManager()
	n1, _ = m.Freeze([]Frozen{
		frozenObj(sch, 1, "A", "", false),
		{Kind: item.KindRelationship, Rel: item.Relationship{
			ID: 2, Assoc: sch.MustAssociation("Read"),
			Ends: []item.End{{Role: "by", Object: 3}, {Role: "from", Object: 1}},
		}},
	}, "first", 1, at(1))
	_, _ = m.Freeze([]Frozen{frozenObj(sch, 4, "B", "", false)}, "second", 1, at(2))
	_, _ = m.Select(n1.Num)
	alt, _ = m.Freeze(nil, "alt", 1, at(3))
	return m, n1, alt
}

func TestCodecRoundTrip(t *testing.T) {
	sch := schema.Figure2()
	m, n1, alt := codecTree(sch)

	e := codec.NewEncoder(nil)
	m.Encode(e)
	d := codec.NewDecoder(e.Bytes())
	m2, err := Decode(d, func(ver int) (*schema.Schema, error) { return sch, nil })
	if err != nil {
		t.Fatal(err)
	}
	if m2.Count() != 3 {
		t.Fatalf("decoded count = %d", m2.Count())
	}
	if !m2.Base().Num.Equal(alt.Num) {
		t.Errorf("decoded base = %s", m2.Base().Num)
	}
	// Structure survives: parent links, deltas, notes.
	dn1, err := m2.Lookup(n1.Num)
	if err != nil {
		t.Fatal(err)
	}
	if dn1.Note != "first" || dn1.DeltaSize() != 2 {
		t.Errorf("decoded node: note=%q delta=%d", dn1.Note, dn1.DeltaSize())
	}
	f, ok := dn1.delta[2]
	if !ok || f.Kind != item.KindRelationship || f.Rel.Assoc.Name() != "Read" {
		t.Errorf("decoded frozen rel: %+v", f)
	}
	dalt, _ := m2.Lookup(alt.Num)
	if dalt.Parent() == nil || !dalt.Parent().Num.Equal(n1.Num) {
		t.Error("decoded parent link broken")
	}
	// Branch counters survive: a new branch off 1.0 gets ordinal 2.
	_, _ = m2.Select(n1.Num)
	b, _ := m2.Freeze(nil, "post-decode", 1, at(4))
	if b.Num.String() != "1.0.2.0" {
		t.Errorf("post-decode branch = %s", b.Num)
	}
}

func TestViewChildrenOrdering(t *testing.T) {
	sch := schema.Figure2()
	data := sch.MustClass("Data")
	textCls := sch.MustClass("Data.Text")
	objs := []item.Object{
		{ID: 1, Class: data, Name: "A", Index: item.NoIndex},
		// Children inserted out of index order.
		{ID: 3, Class: textCls, Parent: 1, Role: "Text", Index: 1},
		{ID: 2, Class: textCls, Parent: 1, Role: "Text", Index: 0},
	}
	v := mustFreeze(t, sch, objs, nil)
	ch := v.Children(1, "Text")
	if len(ch) != 2 || ch[0] != 2 || ch[1] != 3 {
		t.Errorf("children order = %v", ch)
	}
	all := v.Children(1, "")
	if len(all) != 2 {
		t.Errorf("all children = %v", all)
	}
	if got := v.RelationshipsOf(1); len(got) != 0 {
		t.Errorf("rels = %v", got)
	}
}
