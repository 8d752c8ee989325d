package core

// Chunked versioned arrays: the copy-on-write backbone of the columnar
// store's frozen generations. A verArr is an immutable array of rows split
// into fixed-size chunks; consecutive generations share every untouched
// chunk structurally, and a touched chunk is represented as the previous
// chunk plus a small sorted patch list, so freezing a generation costs
// O(delta + chunk count), not O(rows). When a chunk accumulates more than
// vpatchMax patches it is materialized into a fresh dense base, which bounds
// every read to one chunk lookup plus a short binary search.
//
// There is no chain of generations to walk and no collapse step: each
// generation is self-contained, sharing chunk *storage* with its predecessor
// rather than deferring lookups to it.

const (
	vchunkShift = 10
	vchunkSize  = 1 << vchunkShift // rows per chunk
	vchunkMask  = vchunkSize - 1
	vpatchMax   = 64 // patches per chunk before materializing a dense base
)

type slotPatch[T any] struct {
	slot int32
	val  T
}

// vchunk is one chunk of a versioned array. gen identifies the freeze
// generation that created the chunk: a builder of the same generation may
// mutate it in place (nothing else references it yet), any other generation
// must clone first. base holds dense rows (indexes past its length read as
// zero values); patches overrides single slots, sorted ascending.
type vchunk[T any] struct {
	gen     uint64
	base    []T
	patches []slotPatch[T]
}

func (c *vchunk[T]) owner() uint64 { return c.gen }

func (c *vchunk[T]) cloneFor(gen uint64) *vchunk[T] {
	if c == nil {
		return &vchunk[T]{gen: gen}
	}
	return &vchunk[T]{gen: gen, base: c.base, patches: append(make([]slotPatch[T], 0, len(c.patches)+1), c.patches...)}
}

// cowChunk is the chunk type of a versioned array (vchunk, adjChunk):
// owner names the generation that created the chunk, and cloneFor returns
// a copy that generation gen may write — sharing the immutable base,
// copying the patch list — or, called on nil, a fresh empty chunk.
type cowChunk[C any] interface {
	*C
	owner() uint64
	cloneFor(gen uint64) *C
}

// ownChunk returns chunk ci of *chunks for generation gen to write,
// growing the table as needed. A chunk gen created is written in place
// (no generation sealed before gen can reference it); any other is cloned
// first and the clone takes its place in the table, so sealed generations
// never see the write.
func ownChunk[C any, P cowChunk[C]](chunks *[]*C, ci int, gen uint64) *C {
	for ci >= len(*chunks) {
		*chunks = append(*chunks, nil)
	}
	c := (*chunks)[ci]
	if c == nil || P(c).owner() != gen {
		c = P(c).cloneFor(gen)
		(*chunks)[ci] = c
	}
	return c
}

// verArr is an immutable chunked array. The zero verArr is empty; every
// index reads as the zero value of T.
type verArr[T any] struct {
	chunks []*vchunk[T]
}

// at returns the value at index i (the zero value outside the array).
func (a verArr[T]) at(i int) T { return chunkAt(a.chunks, i) }

// ptr returns the value at index i in place, or nil outside the array. A
// sealed chunk is never written again, so the pointer stays valid and its
// target unchanged for the life of the array.
func (a verArr[T]) ptr(i int) *T { return chunkPtr(a.chunks, i) }

func chunkAt[T any](chunks []*vchunk[T], i int) T {
	if p := chunkPtr(chunks, i); p != nil {
		return *p
	}
	var zero T
	return zero
}

func chunkPtr[T any](chunks []*vchunk[T], i int) *T {
	if i < 0 {
		return nil
	}
	ci := i >> vchunkShift
	if ci >= len(chunks) || chunks[ci] == nil {
		return nil
	}
	c := chunks[ci]
	si := int32(i & vchunkMask)
	lo, hi := 0, len(c.patches)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.patches[mid].slot < si {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(c.patches) && c.patches[lo].slot == si {
		return &c.patches[lo].val
	}
	if int(si) < len(c.base) {
		return &c.base[si]
	}
	return nil
}

// newVerArr builds a fully materialized array owned by generation gen from a
// flat slice (the full-freeze path). The source is copied chunk by chunk.
func newVerArr[T any](src []T, gen uint64) verArr[T] {
	n := (len(src) + vchunkSize - 1) >> vchunkShift
	chunks := make([]*vchunk[T], n)
	for ci := range chunks {
		lo := ci << vchunkShift
		hi := lo + vchunkSize
		if hi > len(src) {
			hi = len(src)
		}
		base := make([]T, hi-lo)
		copy(base, src[lo:hi])
		chunks[ci] = &vchunk[T]{gen: gen, base: base}
	}
	return verArr[T]{chunks: chunks}
}

// verBuilder accumulates the writes of one freeze generation over a previous
// array. The chunk table is copied once; each touched chunk is cloned
// (shared base, copied patch list) the first time this generation writes it
// and mutated in place thereafter.
//
// The live columnar store keeps persistent builders as its mutable state:
// done() seals the current generation into the frozen view and a fresh
// builder over the sealed array continues the lineage, so live and frozen
// state share every untouched chunk instead of keeping two copies of the
// rows. Appending beyond a shared base is safe because generations form a
// single lineage: every sealed chunk reads only within the base length its
// slice header captured.
type verBuilder[T any] struct {
	gen    uint64
	chunks []*vchunk[T]
}

// builder starts a new generation over the array.
func (a verArr[T]) builder(gen uint64) *verBuilder[T] {
	chunks := make([]*vchunk[T], len(a.chunks))
	copy(chunks, a.chunks)
	return &verBuilder[T]{gen: gen, chunks: chunks}
}

// set writes the value at index i, growing the array as needed.
func (b *verBuilder[T]) set(i int, v T) {
	c := ownChunk(&b.chunks, i>>vchunkShift, b.gen)
	si := int32(i & vchunkMask)
	if len(c.patches) == 0 && int(si) == len(c.base) {
		// Sequential fill (bulk load, restore): plain append instead of 16
		// rounds of patch-then-materialize per chunk.
		c.base = append(c.base, v)
		return
	}
	lo, hi := 0, len(c.patches)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.patches[mid].slot < si {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(c.patches) && c.patches[lo].slot == si {
		c.patches[lo].val = v
	} else {
		c.patches = append(c.patches, slotPatch[T]{})
		copy(c.patches[lo+1:], c.patches[lo:])
		c.patches[lo] = slotPatch[T]{slot: si, val: v}
	}
	if len(c.patches) > vpatchMax {
		base := make([]T, vchunkSize)
		copy(base, c.base)
		for _, p := range c.patches {
			base[p.slot] = p.val
		}
		c.base = base
		c.patches = nil
	}
}

// at returns the value at index i in the builder's current state.
func (b *verBuilder[T]) at(i int) T { return chunkAt(b.chunks, i) }

// size returns an index upper bound: every index at or beyond it reads as
// the zero value.
func (b *verBuilder[T]) size() int { return len(b.chunks) << vchunkShift }

// done seals the generation. The caller must not reuse the builder: a fresh
// builder over the returned array (with a new generation) continues the
// lineage without mutating sealed chunks.
func (b *verBuilder[T]) done() verArr[T] { return verArr[T]{chunks: b.chunks} }
