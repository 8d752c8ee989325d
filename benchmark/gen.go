package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/wire"
	"repro/seed"
)

// The op generator. One seed fixes the whole op stream: client k of a run
// draws from its own stream derived from (seed, k), and nothing the server
// answers feeds back into what is asked next, so the stream can be written
// down — and digested — without running it.

// target says which server a step is sent to.
type target uint8

const (
	toPrimary target = iota
	toReader         // the follower when the workload has one, else the primary
)

// step is one request with what its reply must look like.
type step struct {
	to  target
	req wire.Request

	// Reply checks. A query must report wantTotal matches and return
	// wantObjects of them; a get must return the roots in refs, and, on a
	// read-back, the first root's Description must equal wantDesc.
	wantTotal   int
	wantObjects int
	refs        []int
	wantDesc    string
	readBack    bool // poll until wantDesc is visible (follower lag), bounded by unitTimeout
}

// unit is one unit of work of a workload: the steps a tool would take in
// lockstep before it moves on.
type unit struct {
	steps []step
	root  int    // editable ref this unit edits, -1 if it only reads
	desc  string // Description the unit's check-in writes
}

const (
	zipfS          = 1.1
	keywordsPerDel = 50 // an editable root's keywords are dropped on its 50th edit
	descBytes      = 64
)

type gen struct {
	d       *dataset
	rng     *rand.Rand
	client  int
	cycle   int
	own     []int      // editable refs this client may edit, hottest first
	ownZipf *rand.Zipf // over own
	all     []int      // every ref, hottest first
	allZipf *rand.Zipf // over all
	kw      map[int]int
	cuts    []string // Revised cut dates of the by-class query
	cutHits []int    // InputData roots at or after each cut
}

func newGen(d *dataset, seed int64, client, clients int) *gen {
	g := &gen{d: d, client: client, kw: make(map[int]int)}
	// Hotness is a property of the seed, shared by all clients: the same
	// roots are hot for everyone.
	g.all = d.hotOrder(rand.New(rand.NewSource(seed)))
	for _, ref := range g.all {
		if ref < d.nEdit && ref%clients == client {
			g.own = append(g.own, ref)
		}
	}
	g.rng = rand.New(rand.NewSource(seed*1_000_003 + int64(client) + 1))
	g.ownZipf = rand.NewZipf(g.rng, zipfS, 1, uint64(len(g.own)-1))
	g.allZipf = rand.NewZipf(g.rng, zipfS, 1, uint64(len(g.all)-1))
	for _, days := range []int{0, 90, 180, 270} {
		cut := revisedBase.AddDate(0, 0, days)
		hits := 0
		for _, ref := range d.inputs {
			if !d.revisedOf(ref).Before(cut) {
				hits++
			}
		}
		g.cuts = append(g.cuts, cut.Format("2006-01-02"))
		g.cutHits = append(g.cutHits, hits)
	}
	return g
}

// ---- Steps ----

func (g *gen) get(to target, refs ...int) step {
	names := make([]string, len(refs))
	for i, ref := range refs {
		names[i] = g.d.names[ref]
	}
	return step{to: to, req: wire.Request{Op: wire.OpGet, Names: names}, refs: refs}
}

func whereDescription(grp int) []wire.Where {
	return []wire.Where{{Path: "Description", Op: wire.CmpEq, ValueKind: uint8(seed.KindString), Value: groupDescription(grp)}}
}

// attrEq asks for one Description group of catalog Data roots: answered
// from the hash index on Data.Description.
func (g *gen) attrEq(to target, grp int) step {
	total := len(g.d.group(grp))
	return step{to: to, wantTotal: total, wantObjects: min(total, 20),
		req: wire.Request{Op: wire.OpQuery, Query: &wire.Query{Class: "Data", Where: whereDescription(grp), Limit: 20}}}
}

// namePrefix asks for the catalog names sharing one prefix: answered from
// the ordered name index.
func (g *gen) namePrefix(to target) step {
	nCat := len(g.d.names) - g.d.nEdit
	p := g.rng.Intn((nCat + prefixSpan - 1) / prefixSpan)
	total := min(prefixSpan, nCat-p*prefixSpan)
	return step{to: to, wantTotal: total, wantObjects: total,
		req: wire.Request{Op: wire.OpQuery, Query: &wire.Query{NameGlob: fmt.Sprintf("c%05d*", p), Limit: 20}}}
}

// byClass pages through the InputData roots revised since a cut date: no
// index covers InputData.Revised, so the class index supplies candidates
// and the predicate is a residual filter over all of them.
func (g *gen) byClass(to target) step {
	c := g.rng.Intn(len(g.cuts))
	total := g.cutHits[c]
	offset := 50 * g.rng.Intn(total/50+1)
	return step{to: to, wantTotal: total, wantObjects: min(50, total-offset),
		req: wire.Request{Op: wire.OpQuery, Query: &wire.Query{Class: "InputData", Limit: 50, Offset: offset,
			Where: []wire.Where{{Path: "Revised", Op: wire.CmpGe, ValueKind: uint8(seed.KindDate), Value: g.cuts[c]}}}}}
}

// follow selects one Description group and navigates Access to the Actions
// its members are related to; Follow steps have no index.
func (g *gen) follow(to target, grp int) step {
	reached := make(map[int]bool)
	for _, ref := range g.d.group(grp) {
		for _, a := range g.d.relsOf[ref] {
			reached[a] = true
		}
	}
	return step{to: to, wantTotal: len(reached), wantObjects: len(reached),
		req: wire.Request{Op: wire.OpQuery, Query: &wire.Query{Class: "Data", Where: whereDescription(grp),
			Follow: []wire.FollowStep{{Assoc: "Access", From: "from", To: "by"}}}}}
}

// edit is check-out → three staged updates → check-in of one of the
// client's own roots.
func (g *gen) edit() (checkout, checkin step, root int, desc string) {
	root = g.own[g.ownZipf.Uint64()]
	name := g.d.names[root]
	g.cycle++
	desc = fmt.Sprintf("w%d-c%08d-", g.client, g.cycle)
	desc += strings.Repeat("x", descBytes-len(desc))
	body := name + ".Text[0].Body"
	updates := []wire.Update{
		{Kind: wire.UpdateSetValue, Path: name + ".Description", ValueKind: uint8(seed.KindString), Value: desc},
		{Kind: wire.UpdateSetValue, Path: name + ".Revised", ValueKind: uint8(seed.KindDate),
			Value: revisedBase.AddDate(0, 0, g.cycle%3650).Format("2006-01-02")},
	}
	if g.kw[root]++; g.kw[root] < keywordsPerDel {
		updates = append(updates, wire.Update{Kind: wire.UpdateCreateSub, Path: body, Role: "Keywords",
			ValueKind: uint8(seed.KindString), Value: fmt.Sprintf("kw-%d", g.cycle)})
	} else {
		// Dropping Body takes its keywords with it; a fresh Body keeps the
		// root's shape, so the objects a Get returns stay level.
		g.kw[root] = 0
		updates = append(updates,
			wire.Update{Kind: wire.UpdateDelete, Path: body},
			wire.Update{Kind: wire.UpdateCreateSub, Path: name + ".Text[0]", Role: "Body"})
	}
	names := []string{name}
	checkout = step{req: wire.Request{Op: wire.OpCheckout, Names: names}, refs: []int{root}}
	checkin = step{req: wire.Request{Op: wire.OpCheckin, Names: names, Updates: updates}}
	return checkout, checkin, root, desc
}

// ---- Units ----

func (g *gen) editUnit() unit {
	co, ci, root, desc := g.edit()
	return unit{steps: []step{co, ci}, root: root, desc: desc}
}

func (g *gen) readUnit() unit {
	var st step
	switch p := g.rng.Intn(100); {
	case p < 70:
		st = g.get(toReader, g.all[g.allZipf.Uint64()])
	case p < 80:
		st = g.attrEq(toReader, g.rng.Intn(g.d.groups()))
	case p < 90:
		st = g.namePrefix(toReader)
	case p < 95:
		st = g.byClass(toReader)
	default:
		st = g.follow(toReader, g.rng.Intn(g.d.groups()))
	}
	return unit{steps: []step{st}, root: -1}
}

// sessionUnit is one SPADES tool step: look something up, read two of the
// hits, then edit an own root and read it back.
func (g *gen) sessionUnit() unit {
	grp := g.rng.Intn(g.d.groups())
	members := g.d.group(grp)
	a := g.rng.Intn(len(members))
	b := (a + 1 + g.rng.Intn(len(members)-1)) % len(members)
	co, ci, root, desc := g.edit()
	back := g.get(toReader, root)
	back.wantDesc, back.readBack = desc, true
	return unit{root: root, desc: desc, steps: []step{
		g.attrEq(toReader, grp), g.get(toReader, members[a], members[b]), co, ci, back}}
}

// digest hashes the first n units of the stream a fresh generator yields.
func opDigest(d *dataset, next func(*gen) unit, seed int64, clients, n int) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for c := 0; c < clients; c++ {
		g := newGen(d, seed, c, clients)
		for i := 0; i < n; i++ {
			u := next(g)
			for _, st := range u.steps {
				// Encoding a wire.Request cannot fail.
				_ = enc.Encode(st.req)
				fmt.Fprintln(h, st.to, st.wantTotal, st.wantObjects, st.refs, st.wantDesc)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
