package item

import (
	"slices"
	"sort"
	"sync"
	"unsafe"
)

// Chunked sorted runs: the structure every dense index of a frozen
// generation shares with its predecessor — the ID lists, the class extents
// and both attribute index kinds. A Run is an immutable ascending set split
// into sorted chunks of at most runChunkBytes of entries (512 IDs, about 100
// attribute postings). Patch copies the chunk table and rebuilds only the
// chunks its delta lands in, so a generation that changes a handful of
// entries costs O(delta × log n + chunk table) and shares every untouched
// chunk with the previous one. A chunk that overflows splits; one that runs
// below a quarter of the bound merges with its neighbour, so only a
// single-chunk run is ever short.
//
// Readers that want one contiguous slice call Slice, which flattens the
// chunks once per run (under a sync.Once) and hands out the same immutable
// slice thereafter; a single-chunk run hands out its chunk. A run that did
// not change keeps its pointer across generations, and with it its flat
// slice. The nil *Run is the empty run.

// runChunkBytes bounds the entries of one chunk, so that rebuilding a
// touched chunk costs the same whatever the entry size.
const runChunkBytes = 4096

// chunkBounds returns the least and the most entries of T a chunk holds
// (unless it is a run's only chunk).
func chunkBounds[T any]() (lo, hi int) {
	var zero T
	hi = max(runChunkBytes/int(unsafe.Sizeof(zero)), 4)
	return hi / 4, hi
}

// runElem is the total order a Run keeps: x.runCmp(y) < 0 when x sorts
// before y, 0 when they are the same entry.
type runElem[T any] interface {
	runCmp(T) int
}

// runCmp orders IDs ascending.
func (id ID) runCmp(o ID) int {
	switch {
	case id < o:
		return -1
	case id > o:
		return 1
	}
	return 0
}

// Run is one immutable generation of a chunked sorted set. All methods are
// safe for concurrent readers.
type Run[T runElem[T]] struct {
	chunks []*runChunk[T] // ascending across the table
	n      int

	once sync.Once
	flat []T
}

// runChunk is one chunk of a run: non-empty, ascending, capacity clipped.
// The table holds pointers, so copying it costs a word per chunk.
type runChunk[T any] struct{ items []T }

// NewRun builds a run over entries that are ascending and free of
// duplicates. The run takes ownership of the slice: it serves as the
// run's flat slice, and its chunks are windows onto it.
func NewRun[T runElem[T]](sorted []T) *Run[T] {
	if len(sorted) == 0 {
		return nil
	}
	r := &Run[T]{n: len(sorted), flat: sorted}
	r.once.Do(func() {}) // the flat slice is already built
	r.chunks = appendChunk(nil, sorted)
	return r
}

// Len returns the number of entries.
func (r *Run[T]) Len() int {
	if r == nil {
		return 0
	}
	return r.n
}

// Slice returns every entry, ascending, as a shared immutable slice built
// at most once per run.
//
//seedlint:frozen
func (r *Run[T]) Slice() []T {
	if r == nil {
		return nil
	}
	if len(r.chunks) == 1 {
		return r.chunks[0].items
	}
	r.once.Do(func() {
		flat := make([]T, 0, r.n)
		for _, c := range r.chunks {
			flat = append(flat, c.items...)
		}
		r.flat = flat
	})
	return r.flat
}

// Patch derives the next generation: r minus del plus add. An entry in both
// add and del stays; a del entry r does not hold is ignored. Both slices
// are sorted in place and neither is retained. Chunks no entry of the delta
// lands in are shared with r, and so is a chunk the delta leaves as it
// was; an unchanged run is r itself.
func (r *Run[T]) Patch(add, del []T) *Run[T] {
	if len(add) == 0 && len(del) == 0 {
		return r
	}
	slices.SortFunc(add, cmpRun[T])
	slices.SortFunc(del, cmpRun[T])

	var old []*runChunk[T]
	if r != nil {
		old = r.chunks
	}
	if len(old) == 0 {
		old = []*runChunk[T]{{}} // one empty chunk every addition lands in
	}
	out := make([]*runChunk[T], 0, len(old)+2)
	n := r.Len()
	changed := false
	ci := 0 // old chunks before ci are in out already
	for len(add) > 0 || len(del) > 0 {
		next := firstOf(add, del)
		// The delta entry lands in the last chunk starting at or before it.
		t := ci + sort.Search(len(old)-ci, func(j int) bool {
			c := old[ci+j].items
			return len(c) > 0 && c[0].runCmp(next) > 0
		}) - 1
		if t < ci {
			t = ci
		}
		out = appendShared(out, old[ci:t])
		// Every delta entry below the next chunk's first entry lands here.
		na, nd := len(add), len(del)
		if t+1 < len(old) {
			bound := old[t+1].items[0]
			na = sort.Search(len(add), func(i int) bool { return add[i].runCmp(bound) >= 0 })
			nd = sort.Search(len(del), func(i int) bool { return del[i].runCmp(bound) >= 0 })
		}
		if merged, ok := mergeChunk(old[t].items, add[:na], del[:nd]); ok {
			n += len(merged) - len(old[t].items)
			out = appendChunk(out, merged)
			changed = true
		} else {
			out = appendShared(out, old[t:t+1])
		}
		add, del, ci = add[na:], del[nd:], t+1
	}
	if !changed {
		return r
	}
	out = appendShared(out, old[ci:])
	if n == 0 {
		return nil
	}
	return &Run[T]{chunks: out, n: n}
}

// cmpRun is runCmp as a function value, for the slices package.
func cmpRun[T runElem[T]](a, b T) int { return a.runCmp(b) }

// firstOf returns the smaller head of two ascending slices, not both empty.
func firstOf[T runElem[T]](a, b []T) T {
	switch {
	case len(a) == 0:
		return b[0]
	case len(b) == 0 || a[0].runCmp(b[0]) <= 0:
		return a[0]
	}
	return b[0]
}

// mergeChunk returns a fresh chunk holding c minus del plus add (all three
// ascending; add and del may repeat an entry), and false with no chunk
// when that is c itself. It costs the delta, not the chunk: each delta
// entry is placed by binary search and the spans of c between them are
// copied whole.
func mergeChunk[T runElem[T]](c, add, del []T) ([]T, bool) {
	var out []T
	i := 0 // c[:i] is settled: copied into out, or the chunk is unchanged so far
	for len(add) > 0 || len(del) > 0 {
		next := firstOf(add, del)
		adding := len(add) > 0 && add[0].runCmp(next) == 0
		for len(add) > 0 && add[0].runCmp(next) == 0 {
			add = add[1:]
		}
		for len(del) > 0 && del[0].runCmp(next) == 0 {
			del = del[1:]
		}
		j, held := slices.BinarySearchFunc(c[i:], next, cmpRun[T])
		j += i
		if adding == held {
			continue // re-added, or deleted while absent: nothing moves
		}
		if out == nil {
			out = make([]T, 0, len(c)+len(add)+1)
		}
		out = append(out, c[i:j]...)
		if adding {
			out = append(out, next)
			i = j
		} else {
			i = j + 1 // deleted
		}
	}
	if out == nil {
		return nil, false
	}
	return append(out, c[i:]...), true
}

// appendChunk appends c to a chunk table, keeping every chunk within
// chunkBounds unless the table holds just one: an
// empty c vanishes, a short c or a short last chunk merge into one, and an
// oversized result splits into near-equal parts. Merged and split chunks
// are windows onto one fresh array; a chunk appended as is stays shared.
func appendChunk[T any](out []*runChunk[T], c []T) []*runChunk[T] {
	if len(c) == 0 {
		return out
	}
	least, most := chunkBounds[T]()
	if last := len(out) - 1; last >= 0 && (len(c) < least || len(out[last].items) < least) {
		c = append(append(make([]T, 0, len(out[last].items)+len(c)), out[last].items...), c...)
		out = out[:last]
	}
	parts := (len(c) + most - 1) / most
	for p := 0; p < parts; p++ {
		lo, hi := p*len(c)/parts, (p+1)*len(c)/parts
		out = append(out, &runChunk[T]{items: c[lo:hi:hi]})
	}
	return out
}

// appendShared appends untouched chunks: the first may have to absorb a
// short chunk the patch left before it, the rest are shared as they are.
func appendShared[T any](out, cs []*runChunk[T]) []*runChunk[T] {
	if len(cs) == 0 {
		return out
	}
	if least, _ := chunkBounds[T](); len(out) > 0 && len(out[len(out)-1].items) < least {
		out = appendChunk(out, cs[0].items)
		cs = cs[1:]
	}
	return append(out, cs...)
}

// runPos addresses one entry of a run: offset i within chunk c. The end
// position is {len(chunks), 0}.
type runPos struct{ c, i int }

func (p runPos) before(q runPos) bool { return p.c < q.c || p.c == q.c && p.i < q.i }

// seek returns the position of the first entry satisfying f, which must be
// false for a prefix of the run and true for the rest.
func (r *Run[T]) seek(f func(T) bool) runPos {
	if r == nil {
		return runPos{}
	}
	c := sort.Search(len(r.chunks), func(c int) bool {
		ch := r.chunks[c].items
		return f(ch[len(ch)-1])
	})
	if c == len(r.chunks) {
		return runPos{c: c}
	}
	ch := r.chunks[c].items
	return runPos{c: c, i: sort.Search(len(ch), func(i int) bool { return f(ch[i]) })}
}

// count returns the number of entries from lo up to, not including, hi.
func (r *Run[T]) count(lo, hi runPos) int {
	if !lo.before(hi) {
		return 0
	}
	n := hi.i - lo.i
	for c := lo.c; c < hi.c; c++ {
		n += len(r.chunks[c].items)
	}
	return n
}

// each calls fn on every entry from lo up to, not including, hi.
func (r *Run[T]) each(lo, hi runPos, fn func(T)) {
	for p := lo; p.before(hi); {
		ch := r.chunks[p.c].items
		end := len(ch)
		if p.c == hi.c {
			end = hi.i
		}
		for _, x := range ch[p.i:end] {
			fn(x)
		}
		p = runPos{c: p.c + 1}
	}
}
