package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/consistency"
	"repro/internal/item"
	"repro/internal/schema"
	"repro/internal/value"
)

func newFig2(t *testing.T) *Engine {
	t.Helper()
	en, err := NewEngine(schema.Figure2())
	if err != nil {
		t.Fatal(err)
	}
	return en
}

func newFig3(t *testing.T) *Engine {
	t.Helper()
	en, err := NewEngine(schema.Figure3())
	if err != nil {
		t.Fatal(err)
	}
	return en
}

func mustCreate(t *testing.T, en *Engine, class, name string) item.ID {
	t.Helper()
	id, err := en.CreateObject(class, name)
	if err != nil {
		t.Fatalf("CreateObject(%s, %s): %v", class, name, err)
	}
	return id
}

// TestFigure1Structure builds the exact object-relationship structure of
// figure 1 under the schema of figure 2 (experiment E1).
func TestFigure1Structure(t *testing.T) {
	en := newFig2(t)

	alarms := mustCreate(t, en, "Data", "Alarms")
	handler := mustCreate(t, en, "Action", "AlarmHandler")

	// (2) relationship 'Read', relating 'AlarmHandler' and 'Alarms' in
	// roles 'by' and 'from'.
	read, err := en.CreateRelationship("Read", map[string]item.ID{"from": alarms, "by": handler})
	if err != nil {
		t.Fatal(err)
	}

	// (3) 'Alarms.Text' with Body and Selector.
	text, err := en.CreateSubObject(alarms, "Text")
	if err != nil {
		t.Fatal(err)
	}
	body, err := en.CreateSubObject(text, "Body")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := en.CreateValueObject(text, "Selector", value.NewString("Representation")); err != nil {
		t.Fatal(err)
	}
	// (1) 'Alarms.Text.Body' carries keywords and the descriptive sentence.
	if _, err := en.CreateValueObject(body, "Keywords", value.NewString("Alarmhandling")); err != nil {
		t.Fatal(err)
	}
	kw1, err := en.CreateValueObject(body, "Keywords", value.NewString("Display"))
	if err != nil {
		t.Fatal(err)
	}

	// (4) the composed name of the dependent object. SEED indexes every
	// sub-object whose class admits several same-role siblings, so the
	// first Text carries index 0.
	p, ok := item.PathOf(en.View(), kw1)
	if !ok || p.String() != "Alarms.Text[0].Body.Keywords[1]" {
		t.Errorf("PathOf = %q, %v", p, ok)
	}
	// And the path resolves back.
	if got, ok := item.Resolve(en.View(), p); !ok || got != kw1 {
		t.Errorf("Resolve(%s) = %d, %v", p, got, ok)
	}

	// The relationship is navigable from both ends.
	v := en.View()
	if rels := v.RelationshipsOf(alarms); len(rels) != 1 || rels[0] != read {
		t.Errorf("RelationshipsOf(alarms) = %v", rels)
	}
	r, _ := v.Relationship(read)
	if r.End("from") != alarms || r.End("by") != handler {
		t.Errorf("Read ends = %+v", r.Ends)
	}
}

// TestPaperExample1 reproduces example (1) of the paper: under the schema
// of figure 2 there is no category for a vague dataflow, so only a precise
// Read or Write can be stored; under figure 3 the generalized 'Access'
// accepts it.
func TestPaperExample1(t *testing.T) {
	en2 := newFig2(t)
	a := mustCreate(t, en2, "Data", "Alarms")
	h := mustCreate(t, en2, "Action", "AlarmHandler")
	if _, err := en2.sch.Association("Access"); err == nil {
		t.Fatal("figure 2 schema should not know Access")
	}
	_ = a
	_ = h

	en3 := newFig3(t)
	a3 := mustCreate(t, en3, "Data", "Alarms")
	h3 := mustCreate(t, en3, "Action", "AlarmHandler")
	if _, err := en3.CreateRelationship("Access", map[string]item.ID{"from": a3, "by": h3}); err != nil {
		t.Fatalf("vague Access relationship rejected: %v", err)
	}
}

// TestPaperExample2 reproduces example (2): entering 'Alarms' as Data
// without Read/Write relationships is allowed (incomplete, not
// inconsistent); the incompleteness is formally detectable.
func TestPaperExample2(t *testing.T) {
	en := newFig2(t)
	alarms := mustCreate(t, en, "Data", "Alarms")

	findings := consistency.CheckCompleteness(en.View())
	var minPart int
	for _, f := range findings {
		if f.Item == alarms && f.Rule == consistency.RuleMinParticipation {
			minPart++
		}
	}
	// Both the Read and the Write association require at least one
	// relationship for every Data object.
	if minPart != 2 {
		t.Errorf("min-participation findings for Alarms = %d, want 2 (Read and Write)", minPart)
	}

	// After adding the required relationships the findings disappear.
	h := mustCreate(t, en, "Action", "AlarmHandler")
	if _, err := en.CreateRelationship("Read", map[string]item.ID{"from": alarms, "by": h}); err != nil {
		t.Fatal(err)
	}
	if _, err := en.CreateRelationship("Write", map[string]item.ID{"from": alarms, "by": h}); err != nil {
		t.Fatal(err)
	}
	for _, f := range consistency.CheckCompleteness(en.View()) {
		if f.Item == alarms && f.Rule == consistency.RuleMinParticipation {
			t.Errorf("unexpected finding after adding relationships: %v", f)
		}
	}
}

// TestRefinementWalk reproduces the vague-to-precise walk of the paper's
// "Vague data" section (experiment E2): Thing -> Data -> OutputData and
// Access -> Write.
func TestRefinementWalk(t *testing.T) {
	en := newFig3(t)

	// "There is a thing with name 'Alarms'".
	alarms := mustCreate(t, en, "Thing", "Alarms")
	sensor := mustCreate(t, en, "Action", "Sensor")

	// A Thing cannot yet be accessed: Access.from requires Data.
	if _, err := en.CreateRelationship("Access", map[string]item.ID{"from": alarms, "by": sensor}); !errors.Is(err, consistency.ErrMembership) {
		t.Fatalf("Access from Thing: %v, want membership violation", err)
	}

	// "re-classifying 'Alarms' in class 'Data' and introducing an
	// 'Access'-relationship with 'Sensor'".
	if err := en.Reclassify(alarms, "Data"); err != nil {
		t.Fatal(err)
	}
	access, err := en.CreateRelationship("Access", map[string]item.ID{"from": alarms, "by": sensor})
	if err != nil {
		t.Fatal(err)
	}

	// Specializing the relationship to Write requires 'Alarms' to be an
	// output first.
	if err := en.Reclassify(access, "Write"); !errors.Is(err, ErrBadReclassify) && !errors.Is(err, consistency.ErrMembership) {
		t.Fatalf("Write with Data end: %v, want rejection", err)
	}
	// "we might learn that 'Alarms' is an output".
	if err := en.Reclassify(alarms, "OutputData"); err != nil {
		t.Fatal(err)
	}
	if err := en.Reclassify(access, "Write"); err != nil {
		t.Fatal(err)
	}

	// "'Alarms' is an output written twice by 'Sensor', and writing is
	// repeated in case of error".
	if _, err := en.CreateValueObject(access, "NumberOfWrites", value.NewInteger(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := en.CreateValueObject(access, "ErrorHandling", value.NewString("repeat")); err != nil {
		t.Fatal(err)
	}

	r, _ := en.View().Relationship(access)
	if r.Assoc.Name() != "Write" {
		t.Errorf("final association = %q", r.Assoc.Name())
	}
	o, _ := en.View().Object(alarms)
	if o.Class.QualifiedName() != "OutputData" {
		t.Errorf("final class = %q", o.Class.QualifiedName())
	}

	// Generalizing back up is also possible while nothing depends on the
	// more precise classification... but the Write relationship and its
	// attributes do depend on it:
	if err := en.Reclassify(alarms, "Data"); err == nil {
		t.Error("generalizing Alarms under a live Write should fail")
	}
	// After generalizing the relationship first (losing nothing but its
	// attributes — which block it):
	if err := en.Reclassify(access, "Access"); err == nil {
		t.Error("generalizing Write with NumberOfWrites attribute should fail (attribute unresolvable)")
	}
}

func TestMaxCardinalityEnforced(t *testing.T) {
	en := newFig2(t)
	alarms := mustCreate(t, en, "Data", "Alarms")
	// Data.Text allows at most 16 sub-objects.
	for i := 0; i < 16; i++ {
		if _, err := en.CreateSubObject(alarms, "Text"); err != nil {
			t.Fatalf("Text %d: %v", i, err)
		}
	}
	if _, err := en.CreateSubObject(alarms, "Text"); !errors.Is(err, consistency.ErrMaxCard) {
		t.Fatalf("17th Text: %v, want max cardinality violation", err)
	}
	// The rejected creation left no trace.
	if n := len(en.View().Children(alarms, "Text")); n != 16 {
		t.Errorf("children after rejection = %d", n)
	}
	// Selector is 1..1: a second one is rejected.
	text := en.View().Children(alarms, "Text")[0]
	if _, err := en.CreateValueObject(text, "Selector", value.NewString("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := en.CreateValueObject(text, "Selector", value.NewString("b")); !errors.Is(err, consistency.ErrMaxCard) {
		t.Fatalf("second Selector: %v", err)
	}
}

func TestContainedAcyclic(t *testing.T) {
	en := newFig2(t)
	a := mustCreate(t, en, "Action", "A")
	b := mustCreate(t, en, "Action", "B")
	c := mustCreate(t, en, "Action", "C")
	link := func(child, parent item.ID) error {
		_, err := en.CreateRelationship("Contained", map[string]item.ID{"contained": child, "container": parent})
		return err
	}
	if err := link(a, b); err != nil {
		t.Fatal(err)
	}
	if err := link(b, c); err != nil {
		t.Fatal(err)
	}
	// Self-containment and cycles are rejected.
	if err := link(c, a); !errors.Is(err, consistency.ErrCycle) {
		t.Fatalf("cycle: %v", err)
	}
	d := mustCreate(t, en, "Action", "D")
	if err := link(d, d); !errors.Is(err, consistency.ErrCycle) {
		t.Fatalf("self-containment: %v", err)
	}
	// The 0..1 'contained' role: a second container for A is rejected.
	if err := link(a, c); !errors.Is(err, consistency.ErrMaxCard) {
		t.Fatalf("second container: %v", err)
	}
}

func TestDuplicateAndBadNames(t *testing.T) {
	en := newFig2(t)
	mustCreate(t, en, "Data", "Alarms")
	if _, err := en.CreateObject("Data", "Alarms"); !errors.Is(err, ErrDuplicateName) {
		t.Errorf("duplicate name: %v", err)
	}
	if _, err := en.CreateObject("Data", "9bad"); err == nil {
		t.Error("bad name accepted")
	}
	if _, err := en.CreateObject("Nope", "X"); err == nil {
		t.Error("unknown class accepted")
	}
	if _, err := en.CreateObject("Data.Text", "X"); !errors.Is(err, ErrNotIndependent) {
		t.Errorf("dependent class as independent: %v", err)
	}
}

func TestValueKindChecked(t *testing.T) {
	en := newFig3(t)
	alarms := mustCreate(t, en, "Data", "Alarms")
	// Revised is DATE (declared on Thing, inherited by Data).
	rev, err := en.CreateSubObject(alarms, "Revised")
	if err != nil {
		t.Fatal(err)
	}
	if err := en.SetValue(rev, value.NewString("yesterday")); !errors.Is(err, consistency.ErrValueKind) {
		t.Fatalf("wrong kind: %v", err)
	}
	if err := en.SetValue(rev, value.NewDate(time.Date(1986, 2, 5, 0, 0, 0, 0, time.UTC))); err != nil {
		t.Fatal(err)
	}
	// Structured objects carry no value.
	text, _ := en.CreateSubObject(alarms, "Text")
	if err := en.SetValue(text, value.NewString("x")); !errors.Is(err, ErrNotValueObject) {
		t.Fatalf("value on structured object: %v", err)
	}
}

func TestDeleteCascades(t *testing.T) {
	en := newFig2(t)
	alarms := mustCreate(t, en, "Data", "Alarms")
	handler := mustCreate(t, en, "Action", "AlarmHandler")
	read, _ := en.CreateRelationship("Read", map[string]item.ID{"from": alarms, "by": handler})
	text, _ := en.CreateSubObject(alarms, "Text")
	body, _ := en.CreateSubObject(text, "Body")
	kw, _ := en.CreateValueObject(body, "Keywords", value.NewString("k"))

	if err := en.Delete(alarms); err != nil {
		t.Fatal(err)
	}
	v := en.View()
	for _, id := range []item.ID{alarms, text, body, kw} {
		if _, ok := v.Object(id); ok {
			t.Errorf("object %d still visible after cascade", id)
		}
	}
	if _, ok := v.Relationship(read); ok {
		t.Error("relationship still visible after cascade")
	}
	// The handler survives; the name is free again; deleted items remain
	// addressable through the engine (marked, not removed).
	if _, ok := v.Object(handler); !ok {
		t.Error("handler should survive")
	}
	if _, ok := v.ObjectByName("Alarms"); ok {
		t.Error("name still bound")
	}
	o, err := en.Object(alarms)
	if err != nil || !o.Deleted {
		t.Errorf("deleted object state: %+v, %v", o, err)
	}
	// Deleting again fails.
	if err := en.Delete(alarms); !errors.Is(err, ErrDeleted) {
		t.Errorf("double delete: %v", err)
	}
	// Re-creating under the same name works.
	if _, err := en.CreateObject("Data", "Alarms"); err != nil {
		t.Errorf("recreate after delete: %v", err)
	}
}

func TestDeleteRelationshipOnly(t *testing.T) {
	en := newFig3(t)
	alarms := mustCreate(t, en, "OutputData", "Alarms")
	sensor := mustCreate(t, en, "Action", "Sensor")
	w, _ := en.CreateRelationship("Write", map[string]item.ID{"from": alarms, "by": sensor})
	n, _ := en.CreateValueObject(w, "NumberOfWrites", value.NewInteger(1))
	if err := en.Delete(w); err != nil {
		t.Fatal(err)
	}
	v := en.View()
	if _, ok := v.Relationship(w); ok {
		t.Error("relationship visible after delete")
	}
	if _, ok := v.Object(n); ok {
		t.Error("attribute visible after relationship delete")
	}
	if _, ok := v.Object(alarms); !ok {
		t.Error("end object must survive relationship delete")
	}
}

func TestTransactionRollback(t *testing.T) {
	en := newFig2(t)
	tx := en.BeginTx()
	en.SetActiveTx(tx)
	a := mustCreate(t, en, "Data", "A")
	h := mustCreate(t, en, "Action", "H")
	if _, err := en.CreateRelationship("Read", map[string]item.ID{"from": a, "by": h}); err != nil {
		t.Fatal(err)
	}
	if err := en.RollbackTx(tx); err != nil {
		t.Fatal(err)
	}
	v := en.View()
	if len(v.Objects()) != 0 || len(v.Relationships()) != 0 {
		t.Errorf("state after rollback: %d objects, %d rels", len(v.Objects()), len(v.Relationships()))
	}
	if _, ok := v.ObjectByName("A"); ok {
		t.Error("name survived rollback")
	}
	if en.DirtyCount() != 0 {
		t.Errorf("dirty after rollback = %d", en.DirtyCount())
	}
	// Commit path.
	tx = en.BeginTx()
	en.SetActiveTx(tx)
	mustCreate(t, en, "Data", "B")
	if _, err := en.CommitTx(tx); err != nil {
		t.Fatal(err)
	}
	if _, ok := en.View().ObjectByName("B"); !ok {
		t.Error("committed object missing")
	}
	if _, err := en.CommitTx(tx); !errors.Is(err, ErrTxState) {
		t.Errorf("Commit of a finished tx: %v", err)
	}
	if err := en.RollbackTx(tx); !errors.Is(err, ErrTxState) {
		t.Errorf("Rollback of a finished tx: %v", err)
	}
}

func TestRejectedOpInsideTxLeavesTxIntact(t *testing.T) {
	en := newFig2(t)
	tx := en.BeginTx()
	en.SetActiveTx(tx)
	a := mustCreate(t, en, "Data", "A")
	// Rejected op: duplicate name.
	if _, err := en.CreateObject("Data", "A"); err == nil {
		t.Fatal("duplicate accepted")
	}
	// The transaction continues and commits the good op.
	if _, err := en.CommitTx(tx); err != nil {
		t.Fatal(err)
	}
	if _, ok := en.View().Object(a); !ok {
		t.Error("good op lost after rejected op in same tx")
	}
}

func TestAttachedProcedureVeto(t *testing.T) {
	s := schema.New("T")
	c, _ := s.AddClass("Doc")
	_, _ = c.AddChild("Title", schema.AtMostOne, value.KindString)
	_ = c.AttachProcedure("titleGuard")
	d, _ := s.AddClass("Other")
	a, _ := s.AddAssociation("Rel")
	_, _ = a.AddRole("x", c, schema.Any)
	_, _ = a.AddRole("y", d, schema.Any)
	if err := s.Freeze(); err != nil {
		t.Fatal(err)
	}
	en, _ := NewEngine(s)

	var events []Op
	en.RegisterProcedure("titleGuard", func(ev Event) error {
		events = append(events, ev.Op)
		// Veto titles longer than 5 runes.
		for _, ch := range ev.View.Children(ev.Item, "Title") {
			if o, ok := ev.View.Object(ch); ok && len(o.Value.Str()) > 5 {
				return errors.New("title too long")
			}
		}
		return nil
	})

	doc := mustCreate(t, en, "Doc", "D")
	title, err := en.CreateValueObject(doc, "Title", value.NewString("ok"))
	if err != nil {
		t.Fatal(err)
	}
	// Procedures attached to Doc run on Doc updates; the Title sub-object's
	// own class has none, so only OpCreate for Doc so far.
	if len(events) == 0 || events[0] != OpCreate {
		t.Errorf("events = %v", events)
	}
	_ = title

	// A veto undoes the update.
	en2procs := len(events)
	_ = en2procs
	longDoc := mustCreate(t, en, "Doc", "E")
	if _, err := en.CreateValueObject(longDoc, "Title", value.NewString("much too long")); err == nil {
		t.Fatal("veto did not propagate")
	} else if !errors.Is(err, ErrBadRecord) && err == nil {
		t.Fatal("unexpected")
	}
	if n := len(en.View().Children(longDoc, "Title")); n != 0 {
		t.Errorf("vetoed title persisted: %d children", n)
	}

	// Unregistered procedures are an error.
	s2 := schema.New("T2")
	c2, _ := s2.AddClass("C")
	_ = c2.AttachProcedure("missing")
	d2, _ := s2.AddClass("D")
	a2, _ := s2.AddAssociation("A")
	_, _ = a2.AddRole("x", c2, schema.Any)
	_, _ = a2.AddRole("y", d2, schema.Any)
	_ = s2.Freeze()
	en2, _ := NewEngine(s2)
	if _, err := en2.CreateObject("C", "X"); !errors.Is(err, ErrProcMissing) {
		t.Errorf("missing procedure: %v", err)
	}
	if _, ok := en2.View().ObjectByName("X"); ok {
		t.Error("object persisted despite missing procedure")
	}
}

func TestSubObjectOfDeletedParent(t *testing.T) {
	en := newFig2(t)
	a := mustCreate(t, en, "Data", "A")
	_ = en.Delete(a)
	if _, err := en.CreateSubObject(a, "Text"); !errors.Is(err, ErrDeleted) {
		t.Errorf("sub-object under deleted parent: %v", err)
	}
}

func TestRelationshipValidation(t *testing.T) {
	en := newFig2(t)
	a := mustCreate(t, en, "Data", "A")
	h := mustCreate(t, en, "Action", "H")
	// Unknown association.
	if _, err := en.CreateRelationship("Nope", map[string]item.ID{"from": a, "by": h}); err == nil {
		t.Error("unknown association accepted")
	}
	// Missing role.
	if _, err := en.CreateRelationship("Read", map[string]item.ID{"from": a}); !errors.Is(err, consistency.ErrRoles) {
		t.Errorf("missing role: %v", err)
	}
	// Extra role.
	if _, err := en.CreateRelationship("Read", map[string]item.ID{"from": a, "by": h, "z": a}); !errors.Is(err, consistency.ErrRoles) {
		t.Errorf("extra role: %v", err)
	}
	// Wrong class.
	if _, err := en.CreateRelationship("Read", map[string]item.ID{"from": h, "by": a}); !errors.Is(err, consistency.ErrMembership) {
		t.Errorf("swapped ends: %v", err)
	}
	// Dangling end.
	if _, err := en.CreateRelationship("Read", map[string]item.ID{"from": a, "by": item.ID(9999)}); !errors.Is(err, consistency.ErrDangling) {
		t.Errorf("dangling end: %v", err)
	}
}

func TestStatsAndRestore(t *testing.T) {
	en := newFig2(t)
	a := mustCreate(t, en, "Data", "A")
	h := mustCreate(t, en, "Action", "H")
	r, _ := en.CreateRelationship("Read", map[string]item.ID{"from": a, "by": h})
	b := mustCreate(t, en, "Data", "B")
	_ = en.Delete(b)

	st := en.Stats()
	if st.Objects != 2 || st.Relationships != 1 || st.DeletedObjects != 1 {
		t.Errorf("stats = %+v", st)
	}

	objs, rels := en.CaptureAll()
	if len(objs) != 3 || len(rels) != 1 {
		t.Fatalf("capture = %d objs, %d rels", len(objs), len(rels))
	}

	// Restore into a fresh engine: same visible state.
	en2 := newFig2(t)
	en2.Restore(objs, rels)
	v := en2.View()
	if _, ok := v.ObjectByName("A"); !ok {
		t.Error("restored name index broken")
	}
	if _, ok := v.ObjectByName("B"); ok {
		t.Error("deleted object resurfaced")
	}
	if got := v.RelationshipsOf(a); len(got) != 1 || got[0] != r {
		t.Errorf("restored rels = %v", got)
	}
	// ID allocation continues above the high-water mark.
	if en2.NextID() <= r {
		t.Errorf("NextID = %d, want > %d", en2.NextID(), r)
	}
	// New objects after restore don't collide.
	c := mustCreate(t, en2, "Data", "C")
	if c == a || c == h || c == r || c == b {
		t.Errorf("ID collision after restore: %d", c)
	}
}

// TestRestoreKeepsRelationshipAttributes: relationship rows must exist
// before sub-objects link to them, or a restore (snapshot load, version
// selection) drops relationship attributes from Children.
func TestRestoreKeepsRelationshipAttributes(t *testing.T) {
	en := newFig3(t)
	a := mustCreate(t, en, "OutputData", "A")
	h := mustCreate(t, en, "Action", "H")
	w, err := en.CreateRelationship("Write", map[string]item.ID{"from": a, "by": h})
	if err != nil {
		t.Fatal(err)
	}
	n, err := en.CreateValueObject(w, "NumberOfWrites", value.NewInteger(3))
	if err != nil {
		t.Fatal(err)
	}
	en.Restore(en.CaptureAll())
	if got := en.View().Children(w, ""); len(got) != 1 || got[0] != n {
		t.Errorf("Children(%d) after restore = %v, want [%d]", w, got, n)
	}
}

func TestDirtyTracking(t *testing.T) {
	en := newFig2(t)
	if en.DirtyCount() != 0 {
		t.Fatal("fresh engine dirty")
	}
	a := mustCreate(t, en, "Data", "A")
	if en.DirtyCount() != 1 {
		t.Errorf("dirty = %d", en.DirtyCount())
	}
	en.ClearDirty()
	if en.DirtyCount() != 0 {
		t.Error("ClearDirty failed")
	}
	// Updates re-mark.
	text, _ := en.CreateSubObject(a, "Text")
	_, _ = en.CreateValueObject(text, "Selector", value.NewString("s"))
	ids := en.DirtyIDs()
	if len(ids) != 2 {
		t.Errorf("dirty ids = %v", ids)
	}
}
