package core

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/item"
	"repro/internal/schema"
	"repro/internal/value"
)

// The packed adjacency (adjarr.go) against a map reference, driven at the
// store's own level so every path is reachable on purpose: links and
// unlinks under parents on both sides of chunk boundaries, enough distinct
// parents per chunk to overflow its patch list and repack it, generations
// sealed between ops (so chunks are cloned) and not (so they are patched in
// place), purge holes, and tail ordinals popped by an undo and reused by a
// new item. Every sealed generation is kept with the reference it must show
// and re-checked after later mutations, and a restore of the final state
// must equal the incremental build.

var kidRoles = []string{"B", "A", "C"} // not in name order, so role order is not symbol order

// kidRootLo and kidRoots place the link-target roots at ordinals
// [kidRootLo, kidRootLo+kidRoots): 100 before the first chunk boundary and
// 100 after it. Kids follow, so the next boundary falls among them.
const (
	kidRootLo = vchunkSize - 100
	kidRoots  = 200
)

type kidRec struct {
	id     item.ID
	parent item.ID
	role   string
	index  int
}

// kidModel is the reference: each parent's kids in role-name, index, ID
// order and each object's relationships ascending.
type kidModel struct {
	kids map[item.ID][]kidRec
	rels map[item.ID][]item.ID
}

func (m kidModel) clone() kidModel {
	c := kidModel{kids: make(map[item.ID][]kidRec, len(m.kids)), rels: make(map[item.ID][]item.ID, len(m.rels))}
	for p, ks := range m.kids {
		c.kids[p] = slices.Clone(ks)
	}
	for o, rs := range m.rels {
		c.rels[o] = slices.Clone(rs)
	}
	return c
}

func (m kidModel) link(k kidRec) {
	ks := m.kids[k.parent]
	i, _ := slices.BinarySearchFunc(ks, k, func(a, b kidRec) int {
		if c := strings.Compare(a.role, b.role); c != 0 {
			return c
		}
		if a.index != b.index {
			return a.index - b.index
		}
		return int(a.id) - int(b.id)
	})
	m.kids[k.parent] = slices.Insert(ks, i, k)
}

func (m kidModel) unlink(k kidRec) {
	ks := m.kids[k.parent]
	i := slices.IndexFunc(ks, func(x kidRec) bool { return x.id == k.id })
	if i < 0 {
		return
	}
	if ks = slices.Delete(ks, i, i+1); len(ks) == 0 {
		delete(m.kids, k.parent)
	} else {
		m.kids[k.parent] = ks
	}
}

// walk is walkPath's reference: the IDs reached from p along roles.
func (m kidModel) walk(p item.ID, roles []string, out []item.ID) []item.ID {
	for _, k := range m.kids[p] {
		switch {
		case k.role != roles[0]:
		case len(roles) == 1:
			out = append(out, k.id)
		default:
			out = m.walk(k.id, roles[1:], out)
		}
	}
	return out
}

type keptGen struct {
	f     *colFrozen
	model kidModel
}

type kidHarness struct {
	t       testing.TB
	sch     *schema.Schema
	class   *schema.Class
	cs      *colStore
	next    item.ID
	model   kidModel
	objs    []item.ID              // every object inserted after the filler roots and not popped
	kids    map[item.ID]kidRec     // sub-objects not purged or popped
	deleted map[item.ID]bool       // deleted, not yet purged
	purged  map[item.ID]bool       // purged: no row, no lists
	rels    map[item.ID][]item.End // live relationships
	parents []item.ID              // link targets
	kept    []keptGen
	freezes int
}

func newKidHarness(t testing.TB) *kidHarness {
	sch := schema.Figure3()
	class, err := sch.Class("Data")
	if err != nil {
		t.Fatal(err)
	}
	h := &kidHarness{
		t: t, sch: sch, class: class, cs: newColStore(nil), next: 1,
		model:   kidModel{kids: map[item.ID][]kidRec{}, rels: map[item.ID][]item.ID{}},
		kids:    map[item.ID]kidRec{},
		deleted: map[item.ID]bool{},
		purged:  map[item.ID]bool{},
		rels:    map[item.ID][]item.End{},
	}
	for i := 0; i < kidRootLo+kidRoots; i++ {
		id := h.insert(item.NoID, "", 0)
		if i >= kidRootLo {
			h.parents = append(h.parents, id)
		}
	}
	h.objs = h.objs[kidRootLo:] // the filler roots below are never touched again
	return h
}

// insert adds an object row (a root when parent is NoID) without linking it.
func (h *kidHarness) insert(parent item.ID, role string, index int) item.ID {
	id := h.next
	h.next++
	o := item.Object{ID: id, Class: h.class, Parent: parent, Role: role, Index: index}
	if parent == item.NoID {
		o.Name = fmt.Sprintf("R%d", id)
	}
	h.cs.insertObject(&o)
	h.objs = append(h.objs, id)
	return id
}

// step applies one op chosen by pick (pick(n) is in [0, n)) and checks the
// live store against the reference.
func (h *kidHarness) step(pick func(int) int) {
	cs := h.cs
	switch op := pick(16); {
	case op < 6: // a new kid under a random parent
		k := kidRec{parent: h.parents[pick(len(h.parents))], role: kidRoles[pick(len(kidRoles))], index: pick(4)}
		k.id = h.insert(k.parent, k.role, k.index)
		cs.linkChild(k.parent, k.role, k.id, k.index)
		h.model.link(k)
		h.kids[k.id] = k
		h.parents = append(h.parents, k.id)
		h.checkLive(k.parent)
	case op < 8: // delete a kid: unlink it and mark it
		if k, ok := h.pickKid(pick, false); ok {
			cs.unlinkChild(k.parent, k.role, k.id)
			cs.setDeleted(k.id, true)
			h.model.unlink(k)
			h.deleted[k.id] = true
			h.checkLive(k.parent)
		}
	case op < 9: // undo a delete
		if k, ok := h.pickKid(pick, true); ok {
			cs.setDeleted(k.id, false)
			cs.linkChild(k.parent, k.role, k.id, k.index)
			if !h.purged[k.parent] {
				h.model.link(k)
			}
			delete(h.deleted, k.id)
			h.checkLive(k.parent)
		}
	case op < 10: // purge a deleted kid: a hole, or a pop at the tail
		if k, ok := h.pickKid(pick, true); ok {
			cs.removeObject(k.id)
			delete(h.deleted, k.id)
			delete(h.kids, k.id)
			h.purged[k.id] = true
			delete(h.model.kids, k.id)
			delete(h.model.rels, k.id)
			h.parents = slices.DeleteFunc(h.parents, func(p item.ID) bool { return p == k.id })
		}
	case op < 11: // an insert undone: the tail ordinal pops, the next insert reuses it
		k := kidRec{parent: h.parents[pick(len(h.parents))], role: kidRoles[pick(len(kidRoles))]}
		k.id = h.insert(k.parent, k.role, 0)
		cs.linkChild(k.parent, k.role, k.id, 0)
		h.model.link(k)
		if pick(2) == 0 {
			h.freeze() // a sealed generation holds the popped item
		}
		cs.unlinkChild(k.parent, k.role, k.id)
		cs.removeObject(k.id)
		h.model.unlink(k)
		h.objs = h.objs[:len(h.objs)-1]
		h.checkLive(k.parent)
	case op < 13: // a relationship over one or two objects, maybe the same twice
		id := h.next
		h.next++
		ends := []item.End{{Role: "x", Object: h.objs[pick(len(h.objs))]}, {Role: "y", Object: h.objs[pick(len(h.objs))]}}
		r := item.Relationship{ID: id, Inherits: true, Ends: ends}
		cs.insertRel(&r)
		for _, e := range ends {
			cs.linkRel(e.Object, id)
			if !h.purged[e.Object] {
				if rs := h.model.rels[e.Object]; !slices.Contains(rs, id) {
					h.model.rels[e.Object] = append(rs, id) // IDs only grow
				}
			}
		}
		h.rels[id] = ends
	case op < 15: // delete a relationship
		if len(h.rels) == 0 {
			break
		}
		ids := slices.Sorted(maps.Keys(h.rels))
		id := ids[pick(len(ids))]
		cs.setDeleted(id, true)
		for _, e := range h.rels[id] {
			cs.unlinkRel(e.Object, id)
			rs := slices.DeleteFunc(h.model.rels[e.Object], func(r item.ID) bool { return r == id })
			if len(rs) == 0 {
				delete(h.model.rels, e.Object)
			} else {
				h.model.rels[e.Object] = rs
			}
		}
		delete(h.rels, id)
	default:
		h.freeze()
	}
	h.checkLive(h.parents[pick(len(h.parents))])
}

// pickKid picks a kid that is deleted (or not), if there is one.
func (h *kidHarness) pickKid(pick func(int) int, deleted bool) (kidRec, bool) {
	var ids []item.ID
	for id := range h.kids {
		if h.deleted[id] == deleted {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return kidRec{}, false
	}
	slices.Sort(ids)
	return h.kids[ids[pick(len(ids))]], true
}

// freeze seals a generation and checks it whole; every fourth is kept,
// with a copy of the reference, for checkKept.
func (h *kidHarness) freeze() {
	g := keptGen{f: h.cs.sealFreeze(h.sch, nil, nil), model: h.model}
	if h.freezes%4 == 0 {
		g.model = h.model.clone()
		h.kept = append(h.kept, g)
	}
	h.freezes++
	h.checkFrozen(g)
}

func (h *kidHarness) checkLive(p item.ID) {
	h.t.Helper()
	var all []item.ID
	for _, k := range h.model.kids[p] {
		all = append(all, k.id)
	}
	if got := h.cs.childrenAll(p); !slices.Equal(got, all) {
		h.t.Fatalf("live children of %d = %v, want %v", p, got, all)
	}
	for _, role := range kidRoles {
		var want []item.ID
		for _, k := range h.model.kids[p] {
			if k.role == role {
				want = append(want, k.id)
			}
		}
		if got := h.cs.children(p, role); !slices.Equal(got, want) {
			h.t.Fatalf("live %s children of %d = %v, want %v", role, p, got, want)
		}
	}
}

// checkFrozen compares a generation with its reference over every parent:
// Children, RelationshipsOf, and walkPath at depths one and two.
func (h *kidHarness) checkFrozen(g keptGen) {
	h.t.Helper()
	f := g.f
	type walk struct {
		roles []string
		syms  []item.Sym
	}
	var walks []walk
	for _, r1 := range kidRoles {
		for _, roles := range [][]string{{r1}, {r1, "A"}} {
			if syms, ok := f.roleSyms(roles); ok {
				walks = append(walks, walk{roles, syms})
			}
		}
	}
	for _, p := range h.objs {
		var all []item.ID
		for _, k := range g.model.kids[p] {
			all = append(all, k.id)
		}
		if got := f.Children(p, ""); !slices.Equal(got, all) {
			h.t.Fatalf("generation %p: children of %d = %v, want %v", f, p, got, all)
		}
		if got, want := f.RelationshipsOf(p), g.model.rels[p]; !slices.Equal(got, want) {
			h.t.Fatalf("generation %p: relationships of %d = %v, want %v", f, p, got, want)
		}
		for _, w := range walks {
			if len(w.roles) == 1 {
				if got, want := f.Children(p, w.roles[0]), g.model.walk(p, w.roles, nil); !slices.Equal(got, want) {
					h.t.Fatalf("generation %p: %s children of %d = %v, want %v", f, w.roles[0], p, got, want)
				}
			}
			var got []item.ID
			f.walkPath(p, w.syms, func(row *objRow) bool { got = append(got, row.id); return false })
			if want := g.model.walk(p, w.roles, nil); !slices.Equal(got, want) {
				h.t.Fatalf("generation %p: walk %v from %d = %v, want %v", f, w.roles, p, got, want)
			}
		}
	}
}

// checkKept re-checks every kept generation: later mutations must not have
// reached any of them.
func (h *kidHarness) checkKept() {
	h.t.Helper()
	for _, g := range h.kept {
		h.checkFrozen(g)
	}
}

// checkRestore restores the final state into a fresh engine and compares
// every list with the incremental store's: the same IDs in the same order,
// each ref naming the row that holds its ID, with the same role.
//
// seed:locked-caller — the engine is the check's own.
func (h *kidHarness) checkRestore() {
	h.t.Helper()
	cs := h.cs
	var objs []item.Object
	for _, id := range cs.objectIDs() {
		o, _ := cs.object(id)
		objs = append(objs, o)
	}
	var rels []item.Relationship
	for _, id := range cs.relIDs() {
		r, _ := cs.rel(id)
		rels = append(rels, r)
	}
	en, err := NewEngine(h.sch)
	if err != nil {
		h.t.Fatal(err)
	}
	en.Restore(objs, rels)
	restored := en.st
	for _, o := range objs {
		if got, want := renderKids(restored, o.ID), renderKids(cs, o.ID); got != want {
			h.t.Fatalf("restored kids of %d = %s, incremental %s", o.ID, got, want)
		}
		if got, want := restored.relsOf(o.ID), cs.relsOf(o.ID); !slices.Equal(got, want) {
			h.t.Fatalf("restored relationships of %d = %v, incremental %v", o.ID, got, want)
		}
	}
}

// renderKids spells a parent's kid list as id/role pairs, checking that
// each ref names the row holding its ID.
func renderKids(cs *colStore, p item.ID) string {
	b, ord := cs.kidSlot(p)
	if b == nil {
		return ""
	}
	ids, refs := b.at(ord)
	var sb strings.Builder
	for i, id := range ids {
		row := cs.objRows.at(int(refs[i].ord))
		if row.id != id {
			return fmt.Sprintf("ref %d of %d names row %d holding %d", i, p, refs[i].ord, row.id)
		}
		fmt.Fprintf(&sb, "%d/%s ", id, cs.schemaSyms.Str(refs[i].role))
	}
	return sb.String()
}

// run drives ops steps, re-checking the kept generations every 1000, and
// finishes with the kept generations and the restore.
func (h *kidHarness) run(ops int, pick func(int) int) {
	for i := 1; i <= ops; i++ {
		h.step(pick)
		if i%1000 == 0 {
			h.checkKept()
		}
	}
	h.freeze()
	h.checkKept()
	h.checkRestore()
}

// TestRandomKidArrDifferential drives the harness over two seeds; both
// chunks the root link targets straddle must have been repacked at least
// once, and the kid ordinals must have crossed the next chunk boundary.
func TestRandomKidArrDifferential(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			h := newKidHarness(t)
			rng := rand.New(rand.NewSource(seed))
			h.run(3000, rng.Intn)
			for ci := 0; ci < 2; ci++ {
				if c := h.cs.objKids.chunks[ci]; c == nil || len(c.offs) == 0 {
					t.Errorf("chunk %d never repacked", ci)
				}
			}
			if h.cs.objLen <= 2*vchunkSize {
				t.Errorf("kids reach ordinal %d only, short of the second chunk boundary", h.cs.objLen)
			}
			t.Logf("%d objects, %d generations checked, %d kept", len(h.objs), h.freezes, len(h.kept))
		})
	}
}

// TestKidArrStagedReuse: a generation patched over its predecessor while a
// transaction is staged (deltaFreeze) shares a committed parent's live kid
// list, which can name a staged child at a tail ordinal whose previous,
// committed occupant was deleted and purged since the predecessor froze —
// the generation's row there is still that occupant's, live. The walk must
// check the row's ID, not just its liveness.
func TestKidArrStagedReuse(t *testing.T) {
	h := newKidHarness(t)
	cs := h.cs
	p, q := h.parents[0], h.parents[1]
	z := h.insert(q, "A", 0) // committed at the tail ordinal
	cs.linkChild(q, "A", z, 0)
	prev := cs.sealFreeze(h.sch, nil, nil)

	cs.unlinkChild(q, "A", z) // deleted and purged: the tail pops
	cs.setDeleted(z, true)
	cs.removeObject(z)
	y := h.insert(p, "A", 0) // staged, at z's ordinal
	cs.linkChild(p, "A", y, 0)
	w := h.insert(p, "A", 1) // committed: p's list is refreshed
	cs.linkChild(p, "A", w, 1)

	f := cs.deltaFreeze(h.sch, prev, map[item.ID]bool{z: true, w: true})
	syms, _ := f.roleSyms([]string{"A"})
	var got []item.ID
	f.walkPath(p, syms, func(row *objRow) bool { got = append(got, row.id); return false })
	if !slices.Equal(got, []item.ID{w}) {
		t.Fatalf("walk from %d reached %v, want only the committed %d (staged %d, purged %d)", p, got, w, y, z)
	}
}

// FuzzKidArr: op bytes drive the harness (each byte picks one choice).
func FuzzKidArr(f *testing.F) {
	f.Add([]byte{0, 0, 0, 15, 6, 0, 8, 0, 9, 0, 10, 1, 0, 15})
	f.Add(slices.Repeat([]byte{0, 3, 1, 2, 15, 10, 7}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		h := newKidHarness(t)
		pick := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b % n
		}
		for len(data) > 0 {
			h.step(pick)
		}
		h.freeze()
		h.checkKept()
		h.checkRestore()
	})
}

// BenchmarkEngine_Restore times a whole-state restore — what a snapshot
// load, a compaction's rebuild and a cold version view run — of objs
// objects: InputData roots of six (Description, Revised, Text, Body,
// Selector), each read by one of 100 actions.
func BenchmarkEngine_Restore(b *testing.B) {
	for _, objs := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("objs=%dk", objs/1000), func(b *testing.B) {
			en, err := NewEngine(schema.Figure3())
			if err != nil {
				b.Fatal(err)
			}
			must := func(id item.ID, err error) item.ID {
				if err != nil {
					b.Fatal(err)
				}
				return id
			}
			actions := make([]item.ID, 100)
			for i := range actions {
				actions[i] = must(en.CreateObject("Action", fmt.Sprintf("A%d", i)))
			}
			day := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
			for i := 0; i < objs/6; i++ {
				id := must(en.CreateObject("InputData", fmt.Sprintf("D%d", i)))
				must(en.CreateValueObject(id, "Description", value.NewString(fmt.Sprintf("d%d", i))))
				must(en.CreateValueObject(id, "Revised", value.NewDate(day.AddDate(0, 0, i))))
				text := must(en.CreateSubObject(id, "Text"))
				must(en.CreateSubObject(text, "Body"))
				must(en.CreateValueObject(text, "Selector", value.NewString("sel")))
				must(en.CreateRelationship("Read", map[string]item.ID{"from": id, "by": actions[i%len(actions)]}))
			}
			objs, rels := en.CaptureAll()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				en.Restore(objs, rels)
			}
		})
	}
}
