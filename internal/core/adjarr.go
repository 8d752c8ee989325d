package core

import (
	"math/bits"
	"slices"

	"repro/internal/item"
)

// Packed adjacency: the store's per-parent lists (an object's or a
// relationship's sub-objects, an object's relationships) as one chunked
// array, versioned like verArr. Each chunk of vchunkSize parent slots holds
// an immutable packed base — offs delimits every slot's list inside one
// pointer-free ids array and one parallel refs array — plus a sorted patch
// list of the slots changed since the base was packed (patchBits marks
// them). Past vpatchMax patches the chunk is repacked into a fresh base. A
// read is one chunk lookup, one bit test and two slice headers; a parent's
// list is no heap object of its own, so the GC traces a few arrays per
// chunk, not a list per parent.
//
// Generation ownership is verArr's (ownChunk): a chunk whose gen is the
// builder's may have its patch list mutated in place; any other is cloned
// (shared base, copied patch list) on first write. A base and a patch's slices are never
// written after they are stored, so every list read out of the array stays
// valid and unchanged for as long as the caller holds it.

// patchBits marks the patched slots of a chunk whose patches are kept in
// slot order: a read tests one bit, and a patched slot finds its patch by
// counting the marked slots below it — no search, and no branch a random
// slot mispredicts.
type patchBits [vchunkSize / 64]uint64

func (p *patchBits) has(si int32) bool { return p[si>>6]&(1<<(si&63)) != 0 }

func (p *patchBits) mark(si int32) { p[si>>6] |= 1 << (si & 63) }

// rank returns the number of marked slots below si: the index slot si's
// patch has, or would take, among the chunk's patches.
func (p *patchBits) rank(si int32) int {
	w := si >> 6
	n := bits.OnesCount64(p[w] & (1<<(si&63) - 1))
	for _, x := range p[:w] {
		n += bits.OnesCount64(x)
	}
	return n
}

// end returns one past the highest marked slot, 0 when none is marked.
func (p *patchBits) end() int {
	for w := len(p) - 1; w >= 0; w-- {
		if p[w] != 0 {
			return w<<6 + 64 - bits.LeadingZeros64(p[w])
		}
	}
	return 0
}

// kidRef is what a kid list knows of a child beside its ID: its object
// ordinal, so a walk reaches the child's row without resolving the ID, and
// its role symbol, so a role's children are one contiguous run.
type kidRef struct {
	ord  int32
	role item.Sym
}

// adjPatch overrides one slot's list: ids and, parallel to it, refs (what
// the list knows of each entry beside its ID); both nil when it is empty.
type adjPatch[R any] struct {
	ids  []item.ID
	refs []R
}

// adjChunk is one chunk of an adjArr: slot s's base list is
// ids[offs[s]:offs[s+1]] (refs likewise) for s < len(offs)-1, empty beyond.
// A slot patched marks reads its patch instead, empty lists included;
// patches holds one per marked slot, in slot order.
type adjChunk[R any] struct {
	gen     uint64
	patched patchBits
	offs    []int32
	ids     []item.ID
	refs    []R
	patches []adjPatch[R]
}

// putPatch stores p as slot si's patch, keeping the patches in slot order.
func (c *adjChunk[R]) putPatch(si int32, p adjPatch[R]) {
	r := c.patched.rank(si)
	if c.patched.has(si) {
		c.patches[r] = p
		return
	}
	c.patched.mark(si)
	c.patches = slices.Insert(c.patches, r, p)
}

func (c *adjChunk[R]) owner() uint64 { return c.gen }

func (c *adjChunk[R]) cloneFor(gen uint64) *adjChunk[R] {
	if c == nil {
		return &adjChunk[R]{gen: gen}
	}
	nc := *c
	nc.gen = gen
	nc.patches = append(make([]adjPatch[R], 0, len(c.patches)+1), c.patches...)
	return &nc
}

// adjArr is an immutable chunked adjacency array. The zero adjArr is empty:
// every slot reads as the empty list.
type adjArr[R any] struct {
	chunks []*adjChunk[R]
}

// at returns slot i's list as two parallel slices, nil when it is empty.
// (Two results, not a struct of them: a struct result is copied through
// the stack at every call boundary, which costs the hot walk more than the
// lookup itself.)
func (a adjArr[R]) at(i int) ([]item.ID, []R) { return adjAt(a.chunks, i) }

func adjAt[R any](chunks []*adjChunk[R], i int) ([]item.ID, []R) {
	ci := i >> vchunkShift
	if i < 0 || ci >= len(chunks) || chunks[ci] == nil {
		return nil, nil
	}
	return chunks[ci].list(int32(i & vchunkMask))
}

// list returns slot si's list, capped so an append by the caller copies.
func (c *adjChunk[R]) list(si int32) ([]item.ID, []R) {
	if c.patched.has(si) {
		p := &c.patches[c.patched.rank(si)]
		return p.ids, p.refs
	}
	if int(si)+1 >= len(c.offs) {
		return nil, nil
	}
	a, b := c.offs[si], c.offs[si+1]
	if a == b {
		return nil, nil
	}
	return c.ids[a:b:b], c.refs[a:b:b]
}

// packAdj builds a fully packed array of n slots owned by generation gen,
// one chunk at a time: list(i) is slot i's list, copied, not retained. The
// share-nothing freeze builds through it; it allocates three arrays per
// chunk.
func packAdj[R any](gen uint64, n int, list func(int) ([]item.ID, []R)) adjArr[R] {
	chunks := make([]*adjChunk[R], (n+vchunkSize-1)>>vchunkShift)
	for ci := range chunks {
		lo := ci << vchunkShift
		chunks[ci] = packChunk(gen, min(vchunkSize, n-lo), func(s int) ([]item.ID, []R) { return list(lo + s) })
	}
	return adjArr[R]{chunks: chunks}
}

// packChunk packs the lists of slots 0..n-1 into one fresh base.
func packChunk[R any](gen uint64, n int, list func(int) ([]item.ID, []R)) *adjChunk[R] {
	total := 0
	for s := 0; s < n; s++ {
		ids, _ := list(s)
		total += len(ids)
	}
	c := &adjChunk[R]{gen: gen, offs: make([]int32, n+1)}
	if total > 0 {
		c.ids = make([]item.ID, 0, total)
		c.refs = make([]R, 0, total)
	}
	for s := 0; s < n; s++ {
		ids, refs := list(s)
		c.ids = append(c.ids, ids...)
		c.refs = append(c.refs, refs...)
		c.offs[s+1] = int32(len(c.ids))
	}
	return c
}

// adjBuilder accumulates the writes of one generation over a previous
// array, like verBuilder: the chunk table is copied once, a chunk of
// another generation is cloned on its first write (ownChunk), and done()
// seals.
type adjBuilder[R any] struct {
	gen    uint64
	chunks []*adjChunk[R]
}

func (a adjArr[R]) builder(gen uint64) *adjBuilder[R] {
	return &adjBuilder[R]{gen: gen, chunks: append([]*adjChunk[R](nil), a.chunks...)}
}

func (b *adjBuilder[R]) at(i int) ([]item.ID, []R) { return adjAt(b.chunks, i) }

// share sets slot i to src's list at i (lists are immutable, so the two
// arrays may hold the same slices).
func (b *adjBuilder[R]) share(i int, src *adjBuilder[R]) {
	ids, refs := src.at(i)
	b.set(i, ids, refs)
}

// set replaces slot i's list with ids and its parallel refs. The array keeps
// both slices as they are, so the caller must not write them afterwards.
func (b *adjBuilder[R]) set(i int, ids []item.ID, refs []R) {
	if len(ids) == 0 {
		ids, refs = nil, nil
	}
	c := ownChunk(&b.chunks, i>>vchunkShift, b.gen)
	si := int32(i & vchunkMask)
	c.putPatch(si, adjPatch[R]{ids: ids, refs: refs})
	if len(c.patches) > vpatchMax {
		n := max(len(c.offs)-1, c.patched.end())
		*c = *packChunk(c.gen, n, func(s int) ([]item.ID, []R) { return c.list(int32(s)) })
	}
}

// done seals the generation; the builder must not be written again.
func (b *adjBuilder[R]) done() adjArr[R] { return adjArr[R]{chunks: b.chunks} }

// inserted returns a fresh list: ids and refs with (id, ref) at position i.
func inserted[R any](ids []item.ID, refs []R, i int, id item.ID, ref R) ([]item.ID, []R) {
	nids, nrefs := make([]item.ID, len(ids)+1), make([]R, len(ids)+1)
	copy(nids, ids[:i])
	copy(nrefs, refs[:i])
	nids[i], nrefs[i] = id, ref
	copy(nids[i+1:], ids[i:])
	copy(nrefs[i+1:], refs[i:])
	return nids, nrefs
}

// removed returns a fresh list: ids and refs without their entry i.
func removed[R any](ids []item.ID, refs []R, i int) ([]item.ID, []R) {
	nids := append(append(make([]item.ID, 0, len(ids)-1), ids[:i]...), ids[i+1:]...)
	nrefs := append(append(make([]R, 0, len(ids)-1), refs[:i]...), refs[i+1:]...)
	return nids, nrefs
}
