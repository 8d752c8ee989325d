package server

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/item"
	"repro/internal/pattern"
	"repro/internal/wire"
	"repro/seed"
)

// citesDB opens an in-memory database on figure 3 evolved by Cites (from:
// Data, to: Keywords), an association whose "to" end is a sub-object, so a
// relationship of a root can end inside the root's own subtree or inside
// another root's.
func citesDB(t testing.TB) *seed.Database {
	t.Helper()
	db, err := seed.NewMemory(seed.Figure3Schema())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	err = db.EvolveSchema(func(sch *seed.Schema) error {
		cites, err := sch.AddAssociation("Cites")
		if err != nil {
			return err
		}
		if _, err := cites.AddRole("from", sch.MustClass("Data"), seed.Any); err != nil {
			return err
		}
		_, err = cites.AddRole("to", sch.MustClass("Data.Text.Body.Keywords"), seed.Any)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// randomSnapshotDB fills a citesDB database from one seed: Data-family
// roots with texts, bodies and keywords, actions, relationships between
// roots (Write with its NumberOfWrites attribute) and from roots to
// keywords anywhere, deleted keywords and texts, and pattern roots with at
// least one text inherited by plain Data roots. It returns the inheritors.
func randomSnapshotDB(t *testing.T, rnd *rand.Rand) (*seed.Database, []seed.ID) {
	t.Helper()
	db := citesDB(t)
	must := func(id seed.ID, err error) seed.ID {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	var plain, inputs, outputs, actions, keywords, texts []seed.ID
	fill := func(root seed.ID, minTexts int) {
		for range minTexts + rnd.Intn(4) {
			text := must(db.CreateSubObject(root, "Text"))
			texts = append(texts, text)
			body := must(db.CreateSubObject(text, "Body"))
			for k := range rnd.Intn(8) {
				keywords = append(keywords, must(db.CreateValueObject(body, "Keywords", seed.NewString(fmt.Sprint("kw", k)))))
			}
			must(db.CreateValueObject(text, "Selector", seed.NewString("sel")))
		}
	}
	classes := []string{"Data", "InputData", "OutputData", "Action"}
	for i := range 24 {
		class := classes[rnd.Intn(len(classes))]
		root := must(db.CreateObject(class, fmt.Sprintf("R%02d", i)))
		if rnd.Intn(2) == 0 {
			must(db.CreateValueObject(root, "Description", seed.NewString("d")))
		}
		switch class {
		case "Action":
			actions = append(actions, root)
			continue
		case "InputData":
			inputs = append(inputs, root)
		case "OutputData":
			outputs = append(outputs, root)
		default:
			plain = append(plain, root)
		}
		fill(root, 0)
	}
	if len(actions) == 0 {
		actions = append(actions, must(db.CreateObject("Action", "A")))
	}
	by := func() seed.ID { return actions[rnd.Intn(len(actions))] }
	for _, root := range plain {
		must(db.CreateRelationship("Access", map[string]seed.ID{"from": root, "by": by()}))
	}
	for _, root := range inputs {
		must(db.CreateRelationship("Read", map[string]seed.ID{"from": root, "by": by()}))
	}
	for _, root := range outputs {
		w := must(db.CreateRelationship("Write", map[string]seed.ID{"from": root, "by": by()}))
		must(db.CreateValueObject(w, "NumberOfWrites", seed.NewInteger(int64(rnd.Intn(9)))))
	}
	data := slices.Concat(plain, inputs, outputs)
	for range len(keywords) / 2 {
		must(db.CreateRelationship("Cites", map[string]seed.ID{
			"from": data[rnd.Intn(len(data))], "to": keywords[rnd.Intn(len(keywords))]}))
	}
	rnd.Shuffle(len(keywords), func(i, j int) { keywords[i], keywords[j] = keywords[j], keywords[i] })
	for _, kw := range keywords[:len(keywords)/5] {
		must(0, db.Delete(kw))
	}
	rnd.Shuffle(len(texts), func(i, j int) { texts[i], texts[j] = texts[j], texts[i] })
	for _, text := range texts[:len(texts)/6] {
		must(0, db.Delete(text))
	}

	var inheritors []seed.ID
	for p := range 2 {
		pat := must(db.CreatePatternObject("Data", fmt.Sprint("P", p)))
		fill(pat, 1)
		for _, root := range plain {
			if rnd.Intn(2) == 0 {
				must(db.Inherit(pat, root))
				inheritors = append(inheritors, root)
			}
		}
	}
	return db, inheritors
}

// checkSnapshotPaths gets every root of v and requires the walk's paths to
// be item.PathOf's: for every object, and for every end of every
// relationship. It returns the objects rendered per root name.
func checkSnapshotPaths(t *testing.T, label string, v seed.View) map[string]int {
	t.Helper()
	counts := make(map[string]int)
	for _, id := range v.Objects() {
		o, ok := v.Object(id)
		if !ok || !o.Independent() {
			continue
		}
		snap, err := snapshotOf(v, o.Name)
		if err != nil {
			t.Fatalf("%s: get %s: %v", label, o.Name, err)
		}
		counts[o.Name] = len(snap.Objects)
		for _, w := range snap.Objects {
			want, ok := item.PathOf(v, seed.ID(w.ID))
			if !ok || w.Path != want.String() {
				t.Errorf("%s: get %s: object %d has path %q, PathOf gives %q (%v)", label, o.Name, w.ID, w.Path, want, ok)
			}
		}
		for _, wr := range snap.Rels {
			r, ok := v.Relationship(seed.ID(wr.ID))
			if !ok {
				t.Fatalf("%s: get %s: relationship %d not visible", label, o.Name, wr.ID)
			}
			var want []wire.End
			for _, e := range r.Ends {
				if p, ok := item.PathOf(v, e.Object); ok {
					want = append(want, wire.End{Role: e.Role, Path: p.String()})
				}
			}
			if !slices.Equal(wr.Ends, want) {
				t.Errorf("%s: get %s: relationship %d ends %v, PathOf gives %v", label, o.Name, wr.ID, wr.Ends, want)
			}
		}
	}
	return counts
}

// TestSnapshotPathsMatchPathOf is the differential check of the top-down
// walk: over seeded random databases, through the user view, a fresh
// pattern splice of the raw view and the raw view itself, every path a
// get renders equals the bottom-up item.PathOf.
func TestSnapshotPathsMatchPathOf(t *testing.T) {
	for s := int64(1); s <= 12; s++ {
		db, inheritors := randomSnapshotDB(t, rand.New(rand.NewSource(s)))
		raw := checkSnapshotPaths(t, fmt.Sprintf("seed %d raw", s), db.RawView())
		checkSnapshotPaths(t, fmt.Sprintf("seed %d user", s), db.View())
		spliced := checkSnapshotPaths(t, fmt.Sprintf("seed %d spliced", s), pattern.NewSpliced(db.RawView()))
		for _, id := range inheritors {
			o, _ := db.View().Object(id)
			if spliced[o.Name] <= raw[o.Name] {
				t.Errorf("seed %d: inheritor %s renders %d objects spliced, %d raw: nothing inherited", s, o.Name, spliced[o.Name], raw[o.Name])
			}
		}
		if t.Failed() {
			return
		}
	}
}

// countingView counts Object decodes.
type countingView struct {
	seed.View
	objects int
}

func (c *countingView) Object(id seed.ID) (seed.Object, bool) {
	c.objects++
	return c.View.Object(id)
}

// TestSnapshotDecodesEachObjectOnce guards the walk's cost: a get of a root
// holding Text[0].Body.Keywords[0..48] (depth 4) decodes each object once
// and each relationship end at most once, not once per ancestor.
func TestSnapshotDecodesEachObjectOnce(t *testing.T) {
	db := citesDB(t)
	must := func(id seed.ID, err error) seed.ID {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	root := must(db.CreateObject("Data", "Deep"))
	must(db.CreateValueObject(root, "Description", seed.NewString("d")))
	text := must(db.CreateSubObject(root, "Text"))
	body := must(db.CreateSubObject(text, "Body"))
	var kws []seed.ID
	for k := range 49 {
		kws = append(kws, must(db.CreateValueObject(body, "Keywords", seed.NewString(fmt.Sprint("kw", k)))))
	}
	must(db.CreateValueObject(text, "Selector", seed.NewString("sel")))
	for _, name := range []string{"A1", "A2"} {
		act := must(db.CreateObject("Action", name))
		must(db.CreateRelationship("Access", map[string]seed.ID{"from": root, "by": act}))
	}
	must(db.CreateRelationship("Cites", map[string]seed.ID{"from": root, "to": kws[7]}))

	v := &countingView{View: db.View()}
	snap, err := snapshotOf(v, "Deep")
	if err != nil {
		t.Fatal(err)
	}
	ends := 0
	for _, r := range snap.Rels {
		ends += len(r.Ends)
	}
	if len(snap.Objects) != 54 || ends != 6 {
		t.Fatalf("get rendered %d objects and %d ends, want 54 and 6", len(snap.Objects), ends)
	}
	if limit := len(snap.Objects) + ends; v.objects > limit {
		t.Errorf("get decoded %d objects, want at most %d (objects + relationship ends)", v.objects, limit)
	}
	t.Logf("%d objects, %d ends: %d decodes", len(snap.Objects), ends, v.objects)
}
