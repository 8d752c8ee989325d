package item

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/value"
)

// Attribute indexes: optional per-class secondary indexes over the values
// reached by a fixed role path below each object of a class. A spec names
// the indexed class, the dotted role path ("Text.Selector"), and the index
// kind — hash for equality lookups, ordered for equality plus ranges. The
// stores build one immutable AttrIdx per registered spec per frozen
// generation (maintained incrementally like the class index); the query
// planner reads them through the AttrIndexedView extension.
//
// An index result is a candidate set, not an answer: it lists, in ascending
// ID order, every root whose some leaf on the path satisfies the lookup.
// The executor re-runs the full predicate set on every candidate, so index
// and scan paths return identical results by construction — the index may
// err on the side of extra candidates (stale pattern roots hidden by a
// spliced view, mixed-kind near-misses) but never misses a true match.

// AttrKind selects which lookups an index answers. Both kinds keep the same
// representation.
type AttrKind uint8

// The attribute index kinds.
const (
	AttrHash    AttrKind = iota + 1 // equality lookups only
	AttrOrdered                     // equality and range lookups
)

// String returns the surface spelling ("hash", "ordered").
func (k AttrKind) String() string {
	switch k {
	case AttrHash:
		return "hash"
	case AttrOrdered:
		return "ordered"
	}
	return "attr-kind?"
}

// Valid reports whether k is a known kind.
func (k AttrKind) Valid() bool { return k == AttrHash || k == AttrOrdered }

// ParseAttrKind parses the surface spelling of an index kind.
func ParseAttrKind(s string) (AttrKind, error) {
	switch s {
	case "hash":
		return AttrHash, nil
	case "ordered":
		return AttrOrdered, nil
	}
	return 0, fmt.Errorf("unknown attribute index kind %q (want hash or ordered)", s)
}

// AttrKey identifies one attribute index: the qualified class name of the
// indexed root objects and the dotted role path to the value sub-objects.
type AttrKey struct {
	Class string
	Path  string
}

// String renders the key as "Class/Role.Path".
func (k AttrKey) String() string { return k.Class + "/" + k.Path }

// AttrSpec is the declaration of one attribute index.
type AttrSpec struct {
	Key  AttrKey
	Kind AttrKind
}

// SplitAttrPath splits a dotted role path, rejecting empty segments.
func SplitAttrPath(path string) ([]string, error) {
	if path == "" {
		return nil, fmt.Errorf("empty attribute path")
	}
	roles := strings.Split(path, ".")
	for _, r := range roles {
		if r == "" {
			return nil, fmt.Errorf("bad attribute path %q", path)
		}
	}
	return roles, nil
}

// AttrPosting is one index entry: a defined leaf value and the root object
// it was reached from. A root contributes one posting per leaf on the path.
type AttrPosting struct {
	Val value.Value
	ID  ID
}

// AttrPostingsOf derives the postings one root contributes to an index on
// the given role path: walk the path like predicate evaluation does and
// collect every defined leaf value. Undefined leaves are not indexed — they
// match nothing in retrieval.
func AttrPostingsOf(v View, root ID, roles []string) []AttrPosting {
	frontier := []ID{root}
	for _, role := range roles {
		var next []ID
		for _, id := range frontier {
			next = append(next, v.Children(id, role)...)
		}
		if len(next) == 0 {
			return nil
		}
		frontier = next
	}
	var out []AttrPosting
	for _, id := range frontier {
		o, ok := v.Object(id)
		if !ok {
			continue
		}
		if o.Value.IsDefined() {
			out = append(out, AttrPosting{Val: o.Value, ID: root})
		}
	}
	return out
}

// attrValKey is the canonical comparable form of an indexed value: strings
// compare as themselves, every other kind through a uint64 ordinal whose
// unsigned order matches value.Compare (sign-flipped integers and dates,
// monotone float bits with -0 normalized to +0). Keys order by kind first,
// so one sorted posting array holds mixed-kind values and a range lookup
// confines itself to the bound's kind.
type attrValKey struct {
	kind uint8
	ord  uint64
	str  string
}

func attrOrd(v value.Value) uint64 {
	switch v.Kind() {
	case value.KindInteger:
		return uint64(v.Int()) ^ (1 << 63)
	case value.KindReal:
		f := v.Real()
		if f == 0 {
			f = 0 // -0 and +0 compare equal; give them one ordinal
		}
		b := math.Float64bits(f)
		if b&(1<<63) != 0 {
			return ^b
		}
		return b | 1<<63
	case value.KindBoolean:
		if v.Bool() {
			return 1
		}
		return 0
	case value.KindDate:
		return uint64(v.Date().Unix()) ^ (1 << 63)
	}
	return 0
}

func attrKeyOf(v value.Value) attrValKey {
	k := attrValKey{kind: uint8(v.Kind())}
	if v.Kind() == value.KindString {
		k.str = v.Str()
	} else {
		k.ord = attrOrd(v)
	}
	return k
}

func (k attrValKey) cmp(o attrValKey) int {
	if k.kind != o.kind {
		if k.kind < o.kind {
			return -1
		}
		return 1
	}
	if k.kind == uint8(value.KindString) {
		return strings.Compare(k.str, o.str)
	}
	if k.ord != o.ord {
		if k.ord < o.ord {
			return -1
		}
		return 1
	}
	return 0
}

// attrEntry is one posting with its key precomputed. Entries order by
// (key, root ID).
type attrEntry struct {
	key attrValKey
	id  ID
}

func (e attrEntry) runCmp(o attrEntry) int {
	if c := e.key.cmp(o.key); c != 0 {
		return c
	}
	return e.id.runCmp(o.id)
}

// attrEntries converts postings to entries, skipping undefined values.
func attrEntries(posts []AttrPosting) []attrEntry {
	entries := make([]attrEntry, 0, len(posts))
	for _, p := range posts {
		if p.Val.IsDefined() {
			entries = append(entries, attrEntry{key: attrKeyOf(p.Val), id: p.ID})
		}
	}
	return entries
}

// AttrIdx is one immutable attribute index generation: one run of postings
// sorted by (value, root ID), shared chunk-wise with the generations before
// and after it. Both kinds keep the same run; only an ordered index answers
// ranges. All lookups are safe for concurrent readers.
type AttrIdx struct {
	kind AttrKind
	run  *Run[attrEntry]
}

// NewAttrIdx builds an index from unordered postings (undefined values are
// skipped, exact duplicates collapse).
func NewAttrIdx(kind AttrKind, posts []AttrPosting) *AttrIdx {
	return &AttrIdx{kind: kind, run: (*Run[attrEntry])(nil).Patch(attrEntries(posts), nil)}
}

// Kind returns the index kind.
func (x *AttrIdx) Kind() AttrKind { return x.kind }

// Len returns the number of postings (one per root-leaf pair).
func (x *AttrIdx) Len() int { return x.run.Len() }

// EstEq returns the posting count for an exact value — the planner's
// cardinality estimate, computed without materializing candidates.
func (x *AttrIdx) EstEq(v value.Value) int {
	if !v.IsDefined() {
		return 0
	}
	lo, hi := x.eqBounds(attrKeyOf(v))
	return x.run.count(lo, hi)
}

// Eq returns the roots holding exactly v on the indexed path, ascending, as
// a fresh slice.
func (x *AttrIdx) Eq(v value.Value) []ID {
	if !v.IsDefined() {
		return nil
	}
	lo, hi := x.eqBounds(attrKeyOf(v))
	return x.ids(lo, hi) // ascending and unique within one key
}

// ids collects the root IDs of the postings between lo and hi.
func (x *AttrIdx) ids(lo, hi runPos) []ID {
	n := x.run.count(lo, hi)
	if n == 0 {
		return nil
	}
	out := make([]ID, 0, n)
	x.run.each(lo, hi, func(e attrEntry) { out = append(out, e.id) })
	return out
}

// eqBounds returns the postings holding exactly key.
func (x *AttrIdx) eqBounds(key attrValKey) (runPos, runPos) {
	return x.run.seek(func(e attrEntry) bool { return e.key.cmp(key) >= 0 }),
		x.run.seek(func(e attrEntry) bool { return e.key.cmp(key) > 0 })
}

// rangeBounds returns the postings with values of the bounds' kind between
// lo and hi (either may be Undefined for an open end). ok is false when the
// index is not ordered; mismatched or unordered bounds produce an empty
// range, matching the scan path where value.Compare refuses them and the
// predicate matches nothing.
func (x *AttrIdx) rangeBounds(lo, hi value.Value, loIncl, hiIncl bool) (runPos, runPos, bool) {
	if x.kind != AttrOrdered {
		return runPos{}, runPos{}, false
	}
	var kind uint8
	switch {
	case lo.IsDefined():
		kind = uint8(lo.Kind())
	case hi.IsDefined():
		kind = uint8(hi.Kind())
	default:
		return runPos{}, runPos{}, false
	}
	if kind == uint8(value.KindBoolean) || kind == uint8(value.KindNone) ||
		(lo.IsDefined() && hi.IsDefined() && lo.Kind() != hi.Kind()) {
		return runPos{}, runPos{}, true // unordered or mismatched bounds: matches nothing
	}
	start := x.run.seek(func(e attrEntry) bool { return e.key.kind >= kind })
	if lo.IsDefined() {
		key := attrKeyOf(lo)
		want := 0
		if !loIncl {
			want = 1
		}
		start = x.run.seek(func(e attrEntry) bool { return e.key.cmp(key) >= want })
	}
	end := x.run.seek(func(e attrEntry) bool { return e.key.kind > kind })
	if hi.IsDefined() {
		key := attrKeyOf(hi)
		want := 1
		if !hiIncl {
			want = 0
		}
		end = x.run.seek(func(e attrEntry) bool { return e.key.cmp(key) >= want })
	}
	if end.before(start) {
		end = start
	}
	return start, end, true
}

// EstRange estimates the candidate count of a range lookup without
// materializing it. ok is false when the index cannot answer ranges.
func (x *AttrIdx) EstRange(lo, hi value.Value, loIncl, hiIncl bool) (int, bool) {
	start, end, ok := x.rangeBounds(lo, hi, loIncl, hiIncl)
	return x.run.count(start, end), ok
}

// Range returns the roots with some leaf value between lo and hi (either
// bound may be Undefined for an open end), ascending and deduplicated, as a
// fresh slice. ok is false when the index cannot answer ranges.
func (x *AttrIdx) Range(lo, hi value.Value, loIncl, hiIncl bool) ([]ID, bool) {
	start, end, ok := x.rangeBounds(lo, hi, loIncl, hiIncl)
	if !ok {
		return nil, false
	}
	out := x.ids(start, end)
	slices.Sort(out)
	return slices.Compact(out), true
}

// Patch derives the next generation: remove holds the previous postings of
// every affected root, exactly as the previous generation indexed them, and
// add holds those roots' fresh postings. A posting in both stays. Only the
// run chunks the postings change are rebuilt; the rest are shared, and an
// unchanged index is x itself.
func (x *AttrIdx) Patch(remove, add []AttrPosting) *AttrIdx {
	if len(remove) == 0 && len(add) == 0 {
		return x
	}
	run := x.run.Patch(attrEntries(add), attrEntries(remove))
	if run == x.run {
		return x
	}
	return &AttrIdx{kind: x.kind, run: run}
}

// AttrIndexedView is an optional View extension implemented by views that
// maintain attribute indexes. ok=false means the view has no index for the
// key (or cannot answer for it — a spliced view with virtual items), and
// the caller must fall back to another access path.
type AttrIndexedView interface {
	View

	// AttrIndex returns the index generation for a key, if maintained.
	AttrIndex(key AttrKey) (*AttrIdx, bool)
}
