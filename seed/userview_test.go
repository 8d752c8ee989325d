package seed

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/item"
	"repro/internal/pattern"
)

// TestUserViewUnsplicedWhilePatternFree takes a database from pattern-free
// to holding patterns and an inherits link and back. At every step the
// user view answers exactly like a fresh splice over the raw view, and it
// is the raw generation itself exactly while no pattern item and no
// inherits link exist.
func TestUserViewUnsplicedWhilePatternFree(t *testing.T) {
	db := memDB(t, Figure3Schema())
	defer db.Close()
	must := func(id ID, err error) ID {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	check := func(step string, wantFree bool) {
		t.Helper()
		v := db.View()
		if free := v == db.RawView(); free != wantFree {
			t.Fatalf("%s: user view unspliced = %v, want %v", step, free, wantFree)
		}
		if err := sameView(v, pattern.NewSpliced(db.RawView())); err != nil {
			t.Fatalf("%s: user view differs from a fresh splice: %v", step, err)
		}
	}

	var roots []ID
	for i := 0; i < 4; i++ {
		root := create(t, db, "Data", fmt.Sprintf("D%d", i))
		text := must(db.CreateSubObject(root, "Text"))
		must(db.CreateValueObject(text, "Selector", NewString(fmt.Sprintf("s%d", i%2))))
		roots = append(roots, root)
	}
	act := create(t, db, "Action", "A")
	must(db.CreateRelationship("Access", map[string]ID{"from": roots[0], "by": act}))
	check("pattern-free", true)
	if _, _, _, ok := db.Origin(roots[0]); ok {
		t.Fatal("Origin reports provenance for a real item of an unspliced view")
	}

	pat := must(db.CreatePatternObject("Data", "P"))
	ptext := must(db.CreateSubObject(pat, "Text"))
	must(db.CreateValueObject(ptext, "Selector", NewString("s1")))
	check("pattern object", false)

	marked := create(t, db, "Action", "M")
	if err := db.MarkPattern(marked); err != nil {
		t.Fatal(err)
	}
	check("marked pattern", false)

	link := must(db.Inherit(pat, roots[1]))
	check("inherits link", false)
	vtexts := db.View().Children(roots[1], "Text")
	if _, _, inh, ok := db.Origin(vtexts[len(vtexts)-1]); !ok || inh != roots[1] {
		t.Fatalf("Origin of the inherited Text = inheritor %d (%v), want %d", inh, ok, roots[1])
	}

	if err := db.Delete(link); err != nil {
		t.Fatal(err)
	}
	check("link deleted", false)
	if err := db.ClearPattern(marked); err != nil {
		t.Fatal(err)
	}
	check("mark cleared", false)
	if err := db.Delete(pat); err != nil {
		t.Fatal(err)
	}
	check("pattern deleted", true)
}

// sameView compares two views over everything a reader observes, walking
// the IDs want lists, plus a by-class query with a residual over each.
func sameView(got, want View) error {
	if g, w := got.Objects(), want.Objects(); !slices.Equal(g, w) {
		return fmt.Errorf("Objects() = %v, want %v", g, w)
	}
	if g, w := got.Relationships(), want.Relationships(); !slices.Equal(g, w) {
		return fmt.Errorf("Relationships() = %v, want %v", g, w)
	}
	for _, id := range want.Objects() {
		g, gok := got.Object(id)
		w, _ := want.Object(id)
		if !gok || !reflect.DeepEqual(g, w) {
			return fmt.Errorf("Object(%d) = %+v (%v), want %+v", id, g, gok, w)
		}
		if w.Independent() {
			if gid, ok := got.ObjectByName(w.Name); !ok || gid != id {
				return fmt.Errorf("ObjectByName(%q) = %d (%v), want %d", w.Name, gid, ok, id)
			}
		}
		if g, w := got.Children(id, ""), want.Children(id, ""); !slices.Equal(g, w) {
			return fmt.Errorf("Children(%d) = %v, want %v", id, g, w)
		}
		if g, w := got.RelationshipsOf(id), want.RelationshipsOf(id); !slices.Equal(g, w) {
			return fmt.Errorf("RelationshipsOf(%d) = %v, want %v", id, g, w)
		}
	}
	for _, id := range want.Relationships() {
		g, gok := got.Relationship(id)
		w, _ := want.Relationship(id)
		if !gok || !reflect.DeepEqual(g, w) {
			return fmt.Errorf("Relationship(%d) = %+v (%v), want %+v", id, g, gok, w)
		}
	}
	for _, name := range []string{"P", "M"} { // patterns at some steps
		gid, gok := got.ObjectByName(name)
		wid, wok := want.ObjectByName(name)
		if gok != wok || gid != wid {
			return fmt.Errorf("ObjectByName(%q) = %d (%v), want %d (%v)", name, gid, gok, wid, wok)
		}
	}
	for _, class := range []string{"Data", "Action"} {
		g, gok := got.(item.IndexedView).ObjectsOfClass(class)
		w, _ := want.(item.IndexedView).ObjectsOfClass(class)
		if !gok || !slices.Equal(g, w) {
			return fmt.Errorf("ObjectsOfClass(%q) = %v (%v), want %v", class, g, gok, w)
		}
	}
	q := func() *Query { return NewQuery().Class("Data", true).Where("Text.Selector", Eq, NewString("s1")) }
	g, gerr := q().Run(got)
	w, werr := q().Run(want)
	if gerr != nil || werr != nil || !slices.Equal(g, w) {
		return fmt.Errorf("query = %v (%v), want %v (%v)", g, gerr, w, werr)
	}
	return nil
}
