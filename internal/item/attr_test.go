package item

import (
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/value"
)

func posting(v value.Value, id uint64) AttrPosting {
	return AttrPosting{Val: v, ID: ID(id)}
}

func ids(ns ...uint64) []ID {
	out := make([]ID, len(ns))
	for i, n := range ns {
		out[i] = ID(n)
	}
	return out
}

func TestAttrIdxEqBothKinds(t *testing.T) {
	posts := []AttrPosting{
		posting(value.NewString("b"), 3),
		posting(value.NewString("a"), 1),
		posting(value.NewString("a"), 2),
		posting(value.NewString("a"), 2), // exact duplicate: deduplicated
		posting(value.Undefined, 9),      // undefined: never indexed
	}
	for _, kind := range []AttrKind{AttrHash, AttrOrdered} {
		idx := NewAttrIdx(kind, posts)
		if got := idx.Len(); got != 3 {
			t.Errorf("%s Len = %d, want 3", kind, got)
		}
		if got := idx.Eq(value.NewString("a")); !reflect.DeepEqual(got, ids(1, 2)) {
			t.Errorf("%s Eq(a) = %v, want [1 2]", kind, got)
		}
		if got := idx.EstEq(value.NewString("a")); got != 2 {
			t.Errorf("%s EstEq(a) = %d, want 2", kind, got)
		}
		if got := idx.Eq(value.NewString("zzz")); len(got) != 0 {
			t.Errorf("%s Eq(zzz) = %v, want empty", kind, got)
		}
		if got := idx.Eq(value.Undefined); len(got) != 0 {
			t.Errorf("%s Eq(undefined) = %v, want empty", kind, got)
		}
		// A value of another kind equals nothing (Matches is kind-strict).
		if got := idx.Eq(value.NewInteger(1)); len(got) != 0 {
			t.Errorf("%s Eq(int) = %v, want empty", kind, got)
		}
	}
}

func TestAttrIdxRangeOrdering(t *testing.T) {
	// Integers, including negatives, must range in numeric order (the
	// sign-flip ordinal), and reals in IEEE total order with -0 == +0.
	idx := NewAttrIdx(AttrOrdered, []AttrPosting{
		posting(value.NewInteger(-5), 1),
		posting(value.NewInteger(0), 2),
		posting(value.NewInteger(3), 3),
		posting(value.NewInteger(100), 4),
	})
	got, ok := idx.Range(value.NewInteger(-5), value.NewInteger(3), false, true)
	if !ok || !reflect.DeepEqual(got, ids(2, 3)) {
		t.Errorf("int range (-5,3] = %v ok=%v, want [2 3]", got, ok)
	}
	got, ok = idx.Range(value.Undefined, value.NewInteger(0), false, false)
	if !ok || !reflect.DeepEqual(got, ids(1)) {
		t.Errorf("int range (,0) = %v ok=%v, want [1]", got, ok)
	}
	if n, ok := idx.EstRange(value.NewInteger(-5), value.NewInteger(3), false, true); !ok || n != 2 {
		t.Errorf("EstRange = %d ok=%v, want 2", n, ok)
	}

	reals := NewAttrIdx(AttrOrdered, []AttrPosting{
		posting(value.NewReal(math.Inf(-1)), 1),
		posting(value.NewReal(-1.5), 2),
		posting(value.NewReal(math.Copysign(0, -1)), 3), // -0 normalizes to +0
		posting(value.NewReal(2.25), 4),
	})
	got, ok = reals.Range(value.NewReal(-2), value.NewReal(0), true, true)
	if !ok || !reflect.DeepEqual(got, ids(2, 3)) {
		t.Errorf("real range [-2,0] = %v ok=%v, want [2 3]", got, ok)
	}

	dates := NewAttrIdx(AttrOrdered, []AttrPosting{
		posting(value.NewDate(time.Date(1986, 2, 5, 0, 0, 0, 0, time.UTC)), 1),
		posting(value.NewDate(time.Date(2026, 8, 7, 0, 0, 0, 0, time.UTC)), 2),
	})
	got, ok = dates.Range(value.NewDate(time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)), value.Undefined, true, false)
	if !ok || !reflect.DeepEqual(got, ids(2)) {
		t.Errorf("date range [2000,) = %v ok=%v, want [2]", got, ok)
	}
}

func TestAttrIdxRangeRefusals(t *testing.T) {
	hash := NewAttrIdx(AttrHash, []AttrPosting{posting(value.NewInteger(1), 1)})
	if _, ok := hash.Range(value.Undefined, value.NewInteger(5), false, false); ok {
		t.Error("hash index answered a range")
	}
	ordered := NewAttrIdx(AttrOrdered, []AttrPosting{
		posting(value.NewInteger(1), 1),
		posting(value.NewBoolean(true), 2),
	})
	// Both bounds undefined: not a range.
	if _, ok := ordered.Range(value.Undefined, value.Undefined, false, false); ok {
		t.Error("unbounded range answered")
	}
	// Booleans are unordered (value.ErrNotOrdered): a boolean bound answers
	// the empty set, matching the scan where Compare refuses.
	got, ok := ordered.Range(value.NewBoolean(false), value.Undefined, true, false)
	if !ok || len(got) != 0 {
		t.Errorf("bool-bounded range = %v ok=%v, want empty ok", got, ok)
	}
	// A bound of a different kind than any entry matches nothing too.
	got, ok = ordered.Range(value.NewString("a"), value.Undefined, true, false)
	if !ok || len(got) != 0 {
		t.Errorf("mismatched-kind range = %v ok=%v, want empty ok", got, ok)
	}
}

func TestAttrIdxPatch(t *testing.T) {
	for _, kind := range []AttrKind{AttrHash, AttrOrdered} {
		testAttrIdxPatchSmall(t, kind)
		testAttrIdxPatchChunked(t, kind)
	}
}

func testAttrIdxPatchSmall(t *testing.T, kind AttrKind) {
	base := NewAttrIdx(kind, []AttrPosting{
		posting(value.NewString("a"), 1),
		posting(value.NewString("a"), 2),
		posting(value.NewString("b"), 3),
	})
	// Root 2 changes value a->b; root 4 appears with value a.
	next := base.Patch(
		[]AttrPosting{posting(value.NewString("a"), 2)},
		[]AttrPosting{posting(value.NewString("b"), 2), posting(value.NewString("a"), 4)},
	)
	if got := next.Eq(value.NewString("a")); !reflect.DeepEqual(got, ids(1, 4)) {
		t.Errorf("%s patched Eq(a) = %v, want [1 4]", kind, got)
	}
	if got := next.Eq(value.NewString("b")); !reflect.DeepEqual(got, ids(2, 3)) {
		t.Errorf("%s patched Eq(b) = %v, want [2 3]", kind, got)
	}
	if got := next.Len(); got != 4 {
		t.Errorf("%s patched Len = %d, want 4", kind, got)
	}
	// The base is immutable: the patch must not have changed it.
	if got := base.Eq(value.NewString("a")); !reflect.DeepEqual(got, ids(1, 2)) {
		t.Errorf("%s base mutated: Eq(a) = %v, want [1 2]", kind, got)
	}
	// Removing the last posting of a value empties it out.
	gone := next.Patch([]AttrPosting{posting(value.NewString("b"), 2), posting(value.NewString("b"), 3)}, nil)
	if got := gone.Eq(value.NewString("b")); len(got) != 0 {
		t.Errorf("%s emptied Eq(b) = %v, want empty", kind, got)
	}
}

// testAttrIdxPatchChunked patches an index whose postings span many run
// chunks: a value's whole group moves to another value, one root takes its
// place, and the old generation keeps answering as before.
func testAttrIdxPatchChunked(t *testing.T, kind AttrKind) {
	const roots, groups = 2000, 20
	val := func(g int) value.Value { return value.NewInteger(int64(g)) }
	var posts []AttrPosting
	for id := 1; id <= roots; id++ {
		posts = append(posts, posting(val(id%groups), uint64(id)))
	}
	base := NewAttrIdx(kind, posts)
	if _, most := chunkBounds[attrEntry](); len(base.run.chunks) < roots/most {
		t.Fatalf("%s: %d postings in %d chunks, want several", kind, roots, len(base.run.chunks))
	}
	// Every root of group 3 moves to group 7; root 1 moves to group 3.
	var remove, add []AttrPosting
	for id := 3; id <= roots; id += groups {
		remove = append(remove, posting(val(3), uint64(id)))
		add = append(add, posting(val(7), uint64(id)))
	}
	remove = append(remove, posting(val(1), 1))
	add = append(add, posting(val(3), 1))
	next := base.Patch(remove, add)

	if got := next.Len(); got != roots {
		t.Errorf("%s patched Len = %d, want %d", kind, got, roots)
	}
	if got := next.Eq(val(3)); !reflect.DeepEqual(got, ids(1)) {
		t.Errorf("%s patched Eq(3) = %v, want [1]", kind, got)
	}
	if got, want := next.EstEq(val(7)), 2*roots/groups; got != want {
		t.Errorf("%s patched EstEq(7) = %d, want %d", kind, got, want)
	}
	eq7 := next.Eq(val(7))
	if len(eq7) != 2*roots/groups || !slices.IsSorted(eq7) || eq7[0] != 3 || eq7[1] != 7 {
		t.Errorf("%s patched Eq(7) = %v..., want both groups merged ascending", kind, eq7[:min(4, len(eq7))])
	}
	if got, want := base.EstEq(val(3)), roots/groups; got != want {
		t.Errorf("%s base changed: EstEq(3) = %d, want %d", kind, got, want)
	}
	if kind == AttrOrdered {
		got, _ := next.Range(val(3), val(7), true, false)
		if want := 1 + 3*roots/groups; len(got) != want || !slices.IsSorted(got) {
			t.Errorf("ordered patched Range[3,7) = %d ids, want %d ascending", len(got), want)
		}
	}
}

func TestSplitAttrPath(t *testing.T) {
	roles, err := SplitAttrPath("Text.Selector")
	if err != nil || !reflect.DeepEqual(roles, []string{"Text", "Selector"}) {
		t.Errorf("SplitAttrPath = %v, %v", roles, err)
	}
	for _, bad := range []string{"", ".", "a..b", ".a", "a."} {
		if _, err := SplitAttrPath(bad); err == nil {
			t.Errorf("SplitAttrPath(%q): want error", bad)
		}
	}
}

func TestParseAttrKind(t *testing.T) {
	for _, tc := range []struct {
		s    string
		kind AttrKind
	}{{"hash", AttrHash}, {"ordered", AttrOrdered}} {
		kind, err := ParseAttrKind(tc.s)
		if err != nil || kind != tc.kind {
			t.Errorf("ParseAttrKind(%q) = %v, %v", tc.s, kind, err)
		}
		if kind.String() != tc.s {
			t.Errorf("%v.String() = %q, want %q", kind, kind.String(), tc.s)
		}
	}
	if _, err := ParseAttrKind("btree"); err == nil {
		t.Error("ParseAttrKind(btree): want error")
	}
}
