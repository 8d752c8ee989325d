package value

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func TestKindNames(t *testing.T) {
	for _, k := range []Kind{KindString, KindInteger, KindReal, KindBoolean, KindDate} {
		got, ok := KindFromName(k.String())
		if !ok || got != k {
			t.Errorf("KindFromName(%s) = %v, %v", k, got, ok)
		}
	}
	if _, ok := KindFromName("NONE"); ok {
		t.Error("KindFromName(NONE) should fail")
	}
	if _, ok := KindFromName("FLOAT"); ok {
		t.Error("KindFromName(FLOAT) should fail")
	}
	if !KindDate.Valid() || Kind(99).Valid() {
		t.Error("Kind.Valid misbehaves")
	}
}

func TestUndefined(t *testing.T) {
	var v Value
	if v.IsDefined() {
		t.Error("zero Value should be undefined")
	}
	if v.Kind() != KindNone {
		t.Error("zero Value kind != KindNone")
	}
	if v.Matches(v) {
		t.Error("undefined must match nothing, not even itself")
	}
	if !v.Equal(Undefined) {
		t.Error("storage identity of two undefineds should hold")
	}
	if v.Matches(NewString("x")) || NewString("x").Matches(v) {
		t.Error("undefined vs defined must not match")
	}
	if _, err := v.Compare(NewInteger(1)); err == nil {
		t.Error("Compare with undefined should error")
	}
	if v.String() != "⊥" {
		t.Errorf("undefined String = %q", v.String())
	}
}

func TestParseRoundTrip(t *testing.T) {
	cases := []struct {
		kind Kind
		in   string
	}{
		{KindString, "Alarm display matrix"},
		{KindInteger, "42"},
		{KindInteger, "-7"},
		{KindReal, "3.25"},
		{KindBoolean, "true"},
		{KindBoolean, "false"},
		{KindDate, "1986-02-05"},
	}
	for _, c := range cases {
		v, err := Parse(c.kind, c.in)
		if err != nil {
			t.Errorf("Parse(%v, %q): %v", c.kind, c.in, err)
			continue
		}
		if v.Kind() != c.kind {
			t.Errorf("Parse(%v, %q) kind = %v", c.kind, c.in, v.Kind())
		}
		w, err := Parse(c.kind, v.String())
		if err != nil || !w.Equal(v) {
			t.Errorf("round trip of %v failed: %v %v", v, w, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []struct {
		kind Kind
		in   string
	}{
		{KindInteger, "x"},
		{KindInteger, "1.5"},
		{KindReal, "pi"},
		{KindBoolean, "yes"},
		{KindDate, "05.02.1986"},
		{KindDate, "1986-13-40"},
		{KindNone, "anything"},
	}
	for _, c := range bad {
		if _, err := Parse(c.kind, c.in); err == nil {
			t.Errorf("Parse(%v, %q) succeeded, want error", c.kind, c.in)
		}
	}
}

func TestAccessors(t *testing.T) {
	if NewString("a").Str() != "a" {
		t.Error("Str")
	}
	if NewInteger(-3).Int() != -3 {
		t.Error("Int")
	}
	if NewReal(2.5).Real() != 2.5 {
		t.Error("Real")
	}
	if !NewBoolean(true).Bool() {
		t.Error("Bool")
	}
	d := NewDate(time.Date(1986, 2, 5, 13, 45, 0, 0, time.UTC))
	if d.Date() != time.Date(1986, 2, 5, 0, 0, 0, 0, time.UTC) {
		t.Errorf("NewDate should truncate to day, got %v", d.Date())
	}
}

func TestCompare(t *testing.T) {
	lt := [][2]Value{
		{NewString("a"), NewString("b")},
		{NewInteger(1), NewInteger(2)},
		{NewReal(1.5), NewReal(2.5)},
		{NewDate(time.Date(1985, 1, 1, 0, 0, 0, 0, time.UTC)), NewDate(time.Date(1986, 1, 1, 0, 0, 0, 0, time.UTC))},
	}
	for _, p := range lt {
		c, err := p[0].Compare(p[1])
		if err != nil || c != -1 {
			t.Errorf("Compare(%v, %v) = %d, %v", p[0], p[1], c, err)
		}
		c, err = p[1].Compare(p[0])
		if err != nil || c != 1 {
			t.Errorf("reverse Compare(%v, %v) = %d, %v", p[1], p[0], c, err)
		}
		c, err = p[0].Compare(p[0])
		if err != nil || c != 0 {
			t.Errorf("self Compare(%v) = %d, %v", p[0], c, err)
		}
	}
	if _, err := NewString("a").Compare(NewInteger(1)); err == nil {
		t.Error("cross-kind Compare should error")
	}
	if _, err := NewBoolean(true).Compare(NewBoolean(false)); err == nil {
		t.Error("BOOLEAN Compare should error (unordered)")
	}
}

func TestQuote(t *testing.T) {
	if got := NewString(`say "hi"`).Quote(); got != `"say \"hi\""` {
		t.Errorf("Quote = %s", got)
	}
	if got := NewInteger(7).Quote(); got != "7" {
		t.Errorf("Quote(int) = %s", got)
	}
}

func TestMatchesIsEqualForDefined(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := NewInteger(a), NewInteger(b)
		return va.Matches(vb) == (a == b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(a, b string) bool {
		return NewString(a).Matches(NewString(b)) == (a == b)
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		c1, err1 := NewInteger(a).Compare(NewInteger(b))
		c2, err2 := NewInteger(b).Compare(NewInteger(a))
		return err1 == nil && err2 == nil && c1 == -c2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDateOfUnixMatchesNewDate pins DateOfUnix to NewDate, representation
// included, for midnights and for counts that are not midnights.
func TestDateOfUnixMatchesNewDate(t *testing.T) {
	f := func(days int16, rem uint16) bool {
		sec := int64(days) * secondsPerDay
		for _, s := range []int64{sec, sec + int64(rem)%secondsPerDay} {
			if !reflect.DeepEqual(DateOfUnix(s), NewDate(time.Unix(s, 0).UTC())) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
