package core

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/item"
	"repro/internal/schema"
	"repro/internal/value"
)

// The frozen generation compiles a query's value test against its row
// encoding (colDecoder.rowTest through colFrozen.MatchPath). These tests pin
// that compiled form to the one definition of the comparison rules,
// value.Op.Holds, applied by the generic walk to the decoded leaf.

// leafRoles names, by value kind, the role of a leaf class of that kind.
var leafRoles = [...]string{
	value.KindString:  "S",
	value.KindInteger: "I",
	value.KindReal:    "R",
	value.KindBoolean: "B",
	value.KindDate:    "D",
}

// predicateEngine returns an engine over a schema whose one class, Rec,
// holds any number of leaves of every kind.
func predicateEngine(tb testing.TB) *Engine {
	tb.Helper()
	s := schema.New("Kinds")
	rec, err := s.AddClass("Rec")
	if err != nil {
		tb.Fatal(err)
	}
	for k, role := range leafRoles[value.KindString:] {
		if _, err := rec.AddChild(role, schema.Any, value.KindString+value.Kind(k)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := s.Freeze(); err != nil {
		tb.Fatal(err)
	}
	en, err := NewEngine(s)
	if err != nil {
		tb.Fatal(err)
	}
	return en
}

// leafState says how a root's leaf is made: a defined value, an undefined
// sub-object of the value's role, or a defined value deleted again.
type leafState uint8

const (
	leafDefined leafState = iota
	leafUndefined
	leafDeleted
)

// addRoot creates a Rec root holding one leaf of v's kind in the given
// state.
func addRoot(tb testing.TB, en *Engine, name string, v value.Value, st leafState) item.ID {
	tb.Helper()
	root, err := en.CreateObject("Rec", name)
	if err != nil {
		tb.Fatal(err)
	}
	role := leafRoles[v.Kind()]
	var leaf item.ID
	if st == leafUndefined {
		leaf, err = en.CreateSubObject(root, role)
	} else {
		leaf, err = en.CreateValueObject(root, role, v)
	}
	if err != nil {
		tb.Fatalf("leaf %v of %s: %v", v, name, err)
	}
	if st == leafDeleted {
		if err := en.Delete(leaf); err != nil {
			tb.Fatal(err)
		}
	}
	return root
}

// checkCompiled requires, for every role, that the frozen generation's
// compiled test of `leaf op c` below root agrees with op.Holds on the
// decoded leaves the generic walk finds.
func checkCompiled(t *testing.T, v item.View, root item.ID, op value.Op, c value.Value) {
	t.Helper()
	pm := v.(item.PathMatcher)
	for _, role := range leafRoles[value.KindString:] {
		want := false
		for _, kid := range v.Children(root, role) {
			if o, ok := v.Object(kid); ok && op.Holds(o.Value, c) {
				want = true
			}
		}
		if got := pm.MatchPath([]string{role}, op, c)(root); got != want {
			var leaves []string
			for _, kid := range v.Children(root, role) {
				if o, ok := v.Object(kid); ok {
					leaves = append(leaves, o.Value.Quote())
				}
			}
			t.Fatalf("role %s leaves %v %s %s %s: compiled %v, Holds %v",
				role, leaves, op, c.Kind(), c.Quote(), got, want)
		}
	}
}

// predicateValues are the leaves and constants of the table: every kind at
// its edges, REAL's signed zeros, infinities and NaN, and strings on both
// sides of valInternMax that share a prefix across it.
func predicateValues() []value.Value {
	long := strings.Repeat("x", valInternMax)
	day := func(y int, m time.Month, d int) value.Value {
		return value.NewDate(time.Date(y, m, d, 0, 0, 0, 0, time.UTC))
	}
	return []value.Value{
		value.NewString(""), value.NewString("a"), value.NewString("ab"), value.NewString("b"),
		value.NewString(long), value.NewString(long + "y"), value.NewString(long + "yz"), value.NewString("x"),
		value.NewInteger(math.MinInt64), value.NewInteger(-1), value.NewInteger(0), value.NewInteger(1), value.NewInteger(math.MaxInt64),
		value.NewReal(math.Copysign(0, -1)), value.NewReal(0), value.NewReal(1.5), value.NewReal(-2),
		value.NewReal(math.NaN()), value.NewReal(math.Inf(1)), value.NewReal(math.Inf(-1)),
		value.NewBoolean(false), value.NewBoolean(true),
		day(1969, 12, 31), day(1970, 1, 1), day(1986, 2, 5), day(2026, 1, 15),
	}
}

// TestCompiledPredicateTable runs every operator — the seven and two
// invalid codes — and every constant of predicateValues, plus Undefined,
// against roots holding each value defined, undefined and deleted, and a
// root with no leaf at all.
func TestCompiledPredicateTable(t *testing.T) {
	en := predicateEngine(t)
	vals := predicateValues()
	var roots []item.ID
	for i, v := range vals {
		for _, st := range []leafState{leafDefined, leafUndefined, leafDeleted} {
			roots = append(roots, addRoot(t, en, fmt.Sprintf("R%d_%d", i, st), v, st))
		}
	}
	if _, err := en.CreateObject("Rec", "Bare"); err != nil {
		t.Fatal(err)
	}
	bare, _ := en.View().ObjectByName("Bare")
	roots = append(roots, bare)
	v := en.FrozenView()
	for op := value.Op(0); op <= value.Contains+1; op++ {
		for _, c := range append(vals, value.Undefined) {
			for _, root := range roots {
				checkCompiled(t, v, root, op, c)
			}
		}
	}
}

// fuzzValue builds a value of kind k%6 from raw fuzz input: any int64, any
// float64 bit pattern, any string, a date within ten thousand years of the
// epoch; kind 0 is Undefined.
func fuzzValue(k uint8, bits uint64, s string) value.Value {
	switch value.Kind(k % 6) {
	case value.KindString:
		return value.NewString(s)
	case value.KindInteger:
		return value.NewInteger(int64(bits))
	case value.KindReal:
		return value.NewReal(math.Float64frombits(bits))
	case value.KindBoolean:
		return value.NewBoolean(bits&1 != 0)
	case value.KindDate:
		const span = 10_000 * 366
		days := int64(bits%(2*span)) - span
		return value.NewDate(time.Unix(days*24*60*60, 0).UTC())
	}
	return value.Undefined
}

// FuzzCompiledPredicate: for a random leaf (kind, payload, state), operator
// and constant, the compiled test equals op.Holds on the decoded leaf.
func FuzzCompiledPredicate(f *testing.F) {
	long := strings.Repeat("s", valInternMax+1)
	f.Add(uint8(value.KindString), uint64(0), "abc", uint8(leafDefined), uint8(value.Contains), uint8(value.KindString), uint64(0), "b")
	f.Add(uint8(value.KindString), uint64(0), long, uint8(leafDefined), uint8(value.Ge), uint8(value.KindString), uint64(0), long[:valInternMax])
	f.Add(uint8(value.KindReal), math.Float64bits(math.Copysign(0, -1)), "", uint8(leafDefined), uint8(value.Eq), uint8(value.KindReal), uint64(0), "")
	f.Add(uint8(value.KindReal), math.Float64bits(math.NaN()), "", uint8(leafDefined), uint8(value.Le), uint8(value.KindReal), math.Float64bits(1), "")
	f.Add(uint8(value.KindDate), uint64(20_000), "", uint8(leafDeleted), uint8(value.Lt), uint8(value.KindDate), uint64(20_001), "")
	f.Add(uint8(value.KindInteger), uint64(1)<<63, "", uint8(leafUndefined), uint8(value.Ne), uint8(value.KindInteger), uint64(7), "")
	f.Add(uint8(value.KindBoolean), uint64(1), "", uint8(leafDefined), uint8(value.Gt), uint8(value.KindBoolean), uint64(0), "")
	f.Add(uint8(value.KindInteger), uint64(3), "", uint8(leafDefined), uint8(value.Eq), uint8(value.KindDate), uint64(3), "")
	f.Fuzz(func(t *testing.T, kind uint8, bits uint64, s string, state, op, ckind uint8, cbits uint64, cs string) {
		leaf := fuzzValue(kind, bits, s)
		st := leafState(state % 3)
		if !leaf.IsDefined() {
			leaf, st = fuzzValue(kind%5+1, bits, s), leafUndefined
		}
		en := predicateEngine(t)
		root := addRoot(t, en, "Root", leaf, st)
		checkCompiled(t, en.FrozenView(), root, value.Op(op%9), fuzzValue(ckind, cbits, cs))
	})
}
