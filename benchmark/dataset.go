package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/wire"
	"repro/seed"
)

// The data set every workload runs on: the paper's Figure 3 schema, filled
// with two kinds of independent objects ("roots").
//
//   - Editable roots e000000.. are Data objects with a Text[0]{Body,
//     Selector} subtree. Only writers touch them: writer i owns the roots
//     whose index is ≡ i mod clients, so two writers never want the same
//     lock.
//   - Catalog roots c000000.. are never edited, which is what makes every
//     query's result count known to the generator in advance. Their class
//     cycles Action, InputData, OutputData, Data, Data; the Data ones carry
//     a Description shared by groups of groupSize, the target of the
//     attr-eq queries.
//
// Relationships (Access, or its specialization Read below InputData) run
// from non-Action roots to catalog Actions.
//
// Roots are numbered editable first, then catalog; that number (a "ref")
// is what the generator passes around. The data set depends only on the
// object count, never on the seed: the seed drives the op stream.

const (
	groupSize  = 10 // catalog Data roots sharing one Description
	prefixSpan = 10 // catalog names sharing one "c00012*" prefix
)

type dataset struct {
	objects int // requested total object count (roots and sub-objects)
	nEdit   int // refs below nEdit are editable roots

	names   []string // by ref
	classes []string // by ref
	rels    []int    // by ref: relationships the root is an end of

	dataRoots []int   // refs of catalog roots of class exactly Data, in order
	inputs    []int   // refs of catalog InputData roots
	actions   []int   // refs of catalog Action roots
	relsOf    [][]int // by source ref: indexes into actions
	relCount  int
}

var revisedBase = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)

func catalogClass(j int) string {
	switch j % 5 {
	case 0:
		return "Action"
	case 1:
		return "InputData"
	case 2:
		return "OutputData"
	}
	return "Data"
}

// newDataset lays out a data set of about objects objects and objects/2
// relationships. An editable root is 6 objects, a catalog root 3.
func newDataset(objects int) *dataset {
	roots := objects * 2 / 9
	if roots < 120 {
		roots = 120 // enough for two full Description groups
	}
	d := &dataset{objects: objects, nEdit: roots / 2}
	var from []int
	for ref := 0; ref < roots; ref++ {
		if ref < d.nEdit {
			d.names = append(d.names, fmt.Sprintf("e%06d", ref))
			d.classes = append(d.classes, "Data")
			from = append(from, ref)
			continue
		}
		j := ref - d.nEdit
		cls := catalogClass(j)
		d.names = append(d.names, fmt.Sprintf("c%06d", j))
		d.classes = append(d.classes, cls)
		switch cls {
		case "Action":
			d.actions = append(d.actions, ref)
		case "InputData":
			d.inputs = append(d.inputs, ref)
		case "Data":
			d.dataRoots = append(d.dataRoots, ref)
		}
		if cls != "Action" {
			from = append(from, ref)
		}
	}
	d.relsOf = make([][]int, roots)
	d.rels = make([]int, roots)
	// Round r gives every source its r-th relationship; consecutive rounds
	// land on consecutive actions, so one source never meets an action twice.
	for k := 0; k < objects/2; k++ {
		src, r := from[k%len(from)], k/len(from)
		if r >= len(d.actions) {
			break
		}
		a := (src*7 + r) % len(d.actions)
		d.relsOf[src] = append(d.relsOf[src], a)
		d.rels[src]++
		d.rels[d.actions[a]]++
		d.relCount++
	}
	return d
}

// hotOrder ranks every root from hottest to coldest. The seed decides which
// roots are hot, not which kinds: ranks cycle through the kinds of root in
// the proportion the data set has them, and rng only shuffles the roots
// within a kind. A Get of an Action returns some twenty relationships, of
// an editable root two or three; were the hottest rank an Action under one
// seed and a Data root under the next, the seeds would be different
// workloads.
func (d *dataset) hotOrder(rng *rand.Rand) []int {
	kinds := make(map[string][]int)
	for _, ref := range rng.Perm(len(d.names)) {
		kind := d.classes[ref]
		if ref < d.nEdit {
			kind = "editable"
		}
		kinds[kind] = append(kinds[kind], ref)
	}
	cycle := []string{"editable", "Data", "editable", "Action", "editable", "InputData", "editable", "Data", "editable", "OutputData"}
	order := make([]int, 0, len(d.names))
	for i := 0; len(order) < len(d.names); i++ {
		kind := cycle[i%len(cycle)]
		if refs := kinds[kind]; len(refs) > 0 {
			order = append(order, refs[0])
			kinds[kind] = refs[1:]
		}
	}
	return order
}

// groups counts the full Description groups; the queries draw from these.
func (d *dataset) groups() int { return len(d.dataRoots) / groupSize }

// group returns the refs of attr-eq group g.
func (d *dataset) group(g int) []int { return d.dataRoots[g*groupSize : (g+1)*groupSize] }

func groupDescription(g int) string { return fmt.Sprintf("group-%05d", g) }

func (d *dataset) revisedOf(ref int) time.Time { return revisedBase.AddDate(0, 0, ref%365) }

// populate creates the data set in db through the public API, one
// auto-committed operation at a time, the way seedsh would load it.
func (d *dataset) populate(db *seed.Database) error {
	value := func(parent seed.ID, role string, v seed.Value) error {
		_, err := db.CreateValueObject(parent, role, v)
		return err
	}
	ids := make([]seed.ID, len(d.names))
	dataOrd := 0
	for ref, name := range d.names {
		id, err := db.CreateObject(d.classes[ref], name)
		if err != nil {
			return err
		}
		ids[ref] = id
		desc := fmt.Sprintf("misc-%06d", ref)
		switch {
		case ref < d.nEdit:
			desc = fmt.Sprintf("edit-%06d-init", ref)
		case d.classes[ref] == "Data":
			desc = groupDescription(dataOrd / groupSize)
			dataOrd++
		}
		if err := value(id, "Description", seed.NewString(desc)); err != nil {
			return err
		}
		if err := value(id, "Revised", seed.NewDate(d.revisedOf(ref))); err != nil {
			return err
		}
		if ref >= d.nEdit {
			continue
		}
		text, err := db.CreateSubObject(id, "Text")
		if err != nil {
			return err
		}
		if _, err := db.CreateSubObject(text, "Body"); err != nil {
			return err
		}
		if err := value(text, "Selector", seed.NewString("sel")); err != nil {
			return err
		}
	}
	for src, acts := range d.relsOf {
		assoc := "Access"
		if d.classes[src] == "InputData" {
			assoc = "Read"
		}
		for _, a := range acts {
			ends := map[string]seed.ID{"from": ids[src], "by": ids[d.actions[a]]}
			if _, err := db.CreateRelationship(assoc, ends); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkSnapshot verifies one Get result against the data set. The object
// count of a catalog root is fixed at 3; an editable root grows and
// shrinks with its keywords, so only its first object is checked.
func (d *dataset) checkSnapshot(s wire.Snapshot, ref int) error {
	name := d.names[ref]
	if s.Root != name || len(s.Objects) == 0 || s.Objects[0].Name != name {
		return fmt.Errorf("%w: get %s: wrong root", errWrongReply, name)
	}
	if ref >= d.nEdit && len(s.Objects) != 3 {
		return fmt.Errorf("%w: get %s: %d objects, want 3", errWrongReply, name, len(s.Objects))
	}
	if len(s.Rels) != d.rels[ref] {
		return fmt.Errorf("%w: get %s: %d relationships, want %d", errWrongReply, name, len(s.Rels), d.rels[ref])
	}
	return nil
}
