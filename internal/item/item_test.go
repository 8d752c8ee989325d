package item_test

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/item"
	"repro/internal/schema"
	"repro/internal/value"
)

func TestKindString(t *testing.T) {
	if item.KindObject.String() != "object" || item.KindRelationship.String() != "relationship" {
		t.Error("kind names")
	}
	if item.Kind(0).String() != "item" {
		t.Error("zero kind name")
	}
}

func TestObjectComponent(t *testing.T) {
	o := item.Object{Name: "Alarms"}
	if c := o.Component(); c.Name != "Alarms" || c.HasIndex() {
		t.Errorf("independent component = %v", c)
	}
	d := item.Object{Parent: 1, Role: "Keywords", Index: 2}
	if c := d.Component(); c.String() != "Keywords[2]" {
		t.Errorf("dependent component = %v", c)
	}
}

func TestRelationshipEnds(t *testing.T) {
	r := item.Relationship{Ends: []item.End{{Role: "from", Object: 7}, {Role: "by", Object: 9}}}
	r.SortEnds()
	if r.Ends[0].Role != "by" {
		t.Error("SortEnds did not sort")
	}
	if r.End("from") != 7 || r.End("nope") != item.NoID {
		t.Error("End lookup")
	}
	if !r.HasEnd(9) || r.HasEnd(8) {
		t.Error("HasEnd")
	}
	role, ok := r.RoleOf(9)
	if !ok || role != "by" {
		t.Errorf("RoleOf = %q %v", role, ok)
	}
	c := r.Clone()
	c.Ends[0].Object = 99
	if r.Ends[0].Object == 99 {
		t.Error("Clone shares ends")
	}
}

// stringModes returns the codec's two string representations: inline, and
// a symbol table (which decodes the symbols it interned while encoding).
func stringModes() map[string]item.Strings {
	return map[string]item.Strings{"inline": item.Inline, "symbols": item.NewSymTab()}
}

func TestCodecObjectRoundTrip(t *testing.T) {
	sch := schema.Figure3()
	cases := []item.Object{
		{ID: 1, Class: sch.MustClass("Data"), Name: "Alarms", Index: item.NoIndex},
		{ID: 2, Class: sch.MustClass("Data.Text"), Parent: 1, Role: "Text", Index: 3, Pattern: true},
		{ID: 3, Class: sch.MustClass("Thing.Revised"), Parent: 1, Role: "Revised",
			Index: item.NoIndex, Value: value.NewDate(time.Date(1986, 2, 5, 0, 0, 0, 0, time.UTC)), Deleted: true},
		{ID: 4, Class: sch.MustClass("Write.NumberOfWrites"), Parent: 9, Role: "NumberOfWrites",
			Index: item.NoIndex, Value: value.NewInteger(-5)},
		{ID: 5, Class: sch.MustClass("Data.Text.Body.Keywords"), Parent: 2, Role: "Keywords",
			Index: 0, Value: value.NewString("alarm")},
	}
	for mode, strs := range stringModes() {
		for _, o := range cases {
			e := codec.NewEncoder(nil)
			item.EncodeObject(e, strs, &o)
			d := codec.NewDecoder(e.Bytes())
			got := item.DecodeObject(d, strs, sch)
			if d.Err() != nil {
				t.Fatalf("%s: decode %v: %v", mode, o.ID, d.Err())
			}
			if got.ID != o.ID || got.Class != o.Class || got.Name != o.Name ||
				got.Parent != o.Parent || got.Role != o.Role || got.Index != o.Index ||
				!got.Value.Equal(o.Value) || got.Pattern != o.Pattern || got.Deleted != o.Deleted {
				t.Errorf("%s: round trip changed: %+v -> %+v", mode, o, got)
			}
		}
	}
}

func TestCodecRelationshipRoundTrip(t *testing.T) {
	sch := schema.Figure3()
	r := item.Relationship{
		ID:    7,
		Assoc: sch.MustAssociation("Write"),
		Ends:  []item.End{{Role: "by", Object: 2}, {Role: "from", Object: 1}},
	}
	// Inherits-relationships survive without an association.
	ir := item.Relationship{
		ID: 8, Inherits: true,
		Ends: []item.End{
			{Role: item.InheritsInheritorRole, Object: 4},
			{Role: item.InheritsPatternRole, Object: 3},
		},
	}
	for mode, strs := range stringModes() {
		e := codec.NewEncoder(nil)
		item.EncodeRelationship(e, strs, &r)
		item.EncodeRelationship(e, strs, &ir)
		d := codec.NewDecoder(e.Bytes())
		got := item.DecodeRelationship(d, strs, sch)
		gotIr := item.DecodeRelationship(d, strs, sch)
		if d.Err() != nil {
			t.Fatalf("%s: %v", mode, d.Err())
		}
		if got.Assoc != r.Assoc || len(got.Ends) != 2 || got.End("from") != 1 {
			t.Errorf("%s: round trip changed: %+v", mode, got)
		}
		if !gotIr.Inherits || gotIr.Assoc != nil || gotIr.End(item.InheritsPatternRole) != 3 {
			t.Errorf("%s: inherits round trip: %+v", mode, gotIr)
		}
	}
}

func TestCodecValueQuick(t *testing.T) {
	f := func(i int64, s string, b bool, fl float64) bool {
		for _, strs := range stringModes() {
			for _, v := range []value.Value{
				value.NewInteger(i), value.NewString(s), value.NewBoolean(b),
				value.NewReal(fl), value.Undefined,
			} {
				e := codec.NewEncoder(nil)
				item.EncodeValue(e, strs, v)
				d := codec.NewDecoder(e.Bytes())
				got := item.DecodeValue(d, strs)
				if d.Err() != nil {
					return false
				}
				if v.Kind() == value.KindReal && fl != fl {
					continue // NaN compares unequal by design
				}
				if !got.Equal(v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	sch := schema.Figure3()
	// Truncated buffer.
	d := codec.NewDecoder([]byte{1})
	if item.DecodeObject(d, item.Inline, sch); !errors.Is(d.Err(), codec.ErrShortBuffer) {
		t.Errorf("truncated object: %v", d.Err())
	}
	// Unknown class.
	other := schema.Figure2() // has Data, but lacks e.g. Thing
	o := item.Object{ID: 2, Class: sch.MustClass("Thing"), Name: "Y", Index: item.NoIndex}
	e := codec.NewEncoder(nil)
	item.EncodeObject(e, item.Inline, &o)
	d = codec.NewDecoder(e.Bytes())
	if item.DecodeObject(d, item.Inline, other); !errors.Is(d.Err(), item.ErrDecode) {
		t.Errorf("object with unknown class: %v", d.Err())
	}
	// A symbol the table does not hold.
	e.Reset()
	e.Byte(byte(value.KindString))
	e.Uint64(5)
	d = codec.NewDecoder(e.Bytes())
	if item.DecodeValue(d, item.NewSymTab()); !errors.Is(d.Err(), item.ErrDecode) {
		t.Errorf("unknown symbol: %v", d.Err())
	}
	// More ends than a relationship may have, and a negative end count.
	for _, n := range []int{65, -1} {
		e.Reset()
		e.Int(n)
		e.Blob(make([]byte, 200))
		d = codec.NewDecoder(e.Bytes())
		if item.DecodeEnds(d, item.Inline); d.Err() == nil {
			t.Errorf("%d ends decoded", n)
		}
	}
}

func TestSymTabRoundTrip(t *testing.T) {
	tab := item.NewSymTab()
	for _, s := range []string{"Data", "Alarms", "Data"} {
		tab.Intern(s)
	}
	e := codec.NewEncoder(nil)
	item.EncodeSymTab(e, tab)
	d := codec.NewDecoder(e.Bytes())
	got := item.DecodeSymTab(d)
	if d.Err() != nil || got.Len() != tab.Len() {
		t.Fatalf("decoded %d symbols, want %d (%v)", got.Len(), tab.Len(), d.Err())
	}
	for sym := 0; sym < tab.Len(); sym++ {
		if got.Str(item.Sym(sym)) != tab.Str(item.Sym(sym)) {
			t.Errorf("symbol %d = %q, want %q", sym, got.Str(item.Sym(sym)), tab.Str(item.Sym(sym)))
		}
	}
	if sym, ok := got.Lookup("Alarms"); !ok || sym != 2 {
		t.Errorf("Lookup(Alarms) = %d, %v", sym, ok)
	}
}

func TestPathOfAndResolve(t *testing.T) {
	en, err := core.NewEngine(schema.Figure2())
	if err != nil {
		t.Fatal(err)
	}
	alarms, _ := en.CreateObject("Data", "Alarms")
	text, _ := en.CreateSubObject(alarms, "Text")
	body, _ := en.CreateSubObject(text, "Body")
	kw0, _ := en.CreateValueObject(body, "Keywords", value.NewString("a"))
	kw1, _ := en.CreateValueObject(body, "Keywords", value.NewString("b"))
	v := en.View()

	p, ok := item.PathOf(v, kw1)
	if !ok || p.String() != "Alarms.Text[0].Body.Keywords[1]" {
		t.Fatalf("PathOf = %v %v", p, ok)
	}
	for _, tc := range []struct {
		path string
		want item.ID
	}{
		{"Alarms", alarms},
		{"Alarms.Text[0]", text},
		{"Alarms.Text[0].Body", body},
		{"Alarms.Text[0].Body.Keywords[0]", kw0},
		{"Alarms.Text[0].Body.Keywords[1]", kw1},
	} {
		got, ok := item.Resolve(v, ident.MustParsePath(tc.path))
		if !ok || got != tc.want {
			t.Errorf("Resolve(%s) = %d %v, want %d", tc.path, got, ok, tc.want)
		}
	}
	for _, bad := range []string{"Nope", "Alarms.Nope", "Alarms.Text[5]", "Alarms.Text[0].Body.Keywords[9]", "Alarms.Text"} {
		if _, ok := item.Resolve(v, ident.MustParsePath(bad)); ok {
			t.Errorf("Resolve(%s) succeeded", bad)
		}
	}
	// Unindexed resolution works for max-1 roles (Body has 1..1).
	if id, ok := item.Resolve(v, ident.MustParsePath("Alarms.Text[0].Body")); !ok || id != body {
		t.Error("unindexed role resolution failed")
	}
}

// Relationship attributes root their paths at the relationship, so PathOf
// stops there.
func TestPathOfRelationshipAttribute(t *testing.T) {
	en, _ := core.NewEngine(schema.Figure3())
	alarms, _ := en.CreateObject("OutputData", "Alarms")
	sensor, _ := en.CreateObject("Action", "Sensor")
	w, _ := en.CreateRelationship("Write", map[string]item.ID{"from": alarms, "by": sensor})
	n, _ := en.CreateValueObject(w, "NumberOfWrites", value.NewInteger(2))
	p, ok := item.PathOf(en.View(), n)
	if !ok || p.String() != "NumberOfWrites" {
		t.Errorf("attribute path = %v %v", p, ok)
	}
}
