// Package value implements the typed value system of SEED.
//
// Leaf objects in SEED carry values of a schema-declared sort such as STRING
// or DATE (figures 2 and 3 of the paper use STRING, INTEGER, and DATE).
// Because SEED admits incomplete information, the package models an explicit
// Undefined value with the retrieval semantics the paper prescribes: "When
// the database is searched for data that meet certain selection criteria, an
// undefined object matches nothing."
package value

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the value sorts a SEED schema may declare.
type Kind uint8

// The value sorts. KindNone marks classes whose instances carry no value.
const (
	KindNone Kind = iota
	KindString
	KindInteger
	KindReal
	KindBoolean
	KindDate
)

var kindNames = [...]string{
	KindNone:    "NONE",
	KindString:  "STRING",
	KindInteger: "INTEGER",
	KindReal:    "REAL",
	KindBoolean: "BOOLEAN",
	KindDate:    "DATE",
}

// String returns the schema-surface spelling of the kind (STRING, INTEGER, …).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Valid reports whether k is a known kind.
func (k Kind) Valid() bool { return k <= KindDate }

// KindFromName resolves a schema-surface kind name. It returns KindNone and
// false for unknown names.
func KindFromName(name string) (Kind, bool) {
	for k, n := range kindNames {
		if k != int(KindNone) && n == name {
			return Kind(k), true
		}
	}
	return KindNone, false
}

// Errors returned by value operations.
var (
	ErrKindMismatch = errors.New("value: kind mismatch")
	ErrParse        = errors.New("value: cannot parse")
	ErrNotOrdered   = errors.New("value: kinds not ordered")
)

// DateLayout is the surface form of DATE values.
const DateLayout = "2006-01-02"

// Value is an immutable typed value. The zero Value is Undefined.
type Value struct {
	kind Kind
	s    string
	i    int64
	f    float64
	b    bool
	t    time.Time
}

// Undefined is the absent value: a sub-object that has not been given a
// value yet. It matches nothing in retrieval.
var Undefined = Value{}

// String constructors.

// NewString returns a STRING value.
func NewString(s string) Value { return Value{kind: KindString, s: s} }

// NewInteger returns an INTEGER value.
func NewInteger(i int64) Value { return Value{kind: KindInteger, i: i} }

// NewReal returns a REAL value.
func NewReal(f float64) Value { return Value{kind: KindReal, f: f} }

// NewBoolean returns a BOOLEAN value.
func NewBoolean(b bool) Value { return Value{kind: KindBoolean, b: b} }

// NewDate returns a DATE value truncated to the day.
func NewDate(t time.Time) Value {
	y, m, d := t.Date()
	return Value{kind: KindDate, t: time.Date(y, m, d, 0, 0, 0, 0, time.UTC)}
}

// DateOfUnix returns the date whose midnight UTC is sec seconds after the
// Unix epoch — the form a store encodes dates in — without NewDate's
// calendar round trip. A count that is not a midnight is canonicalized
// like NewDate.
func DateOfUnix(sec int64) Value {
	t := time.Unix(sec, 0).UTC()
	if sec%secondsPerDay != 0 {
		return NewDate(t)
	}
	return Value{kind: KindDate, t: t}
}

const secondsPerDay = 24 * 60 * 60

// Parse converts a surface string into a value of the given kind.
func Parse(k Kind, s string) (Value, error) {
	switch k {
	case KindString:
		return NewString(s), nil
	case KindInteger:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return Undefined, fmt.Errorf("%w: %q as INTEGER", ErrParse, s)
		}
		return NewInteger(i), nil
	case KindReal:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Undefined, fmt.Errorf("%w: %q as REAL", ErrParse, s)
		}
		return NewReal(f), nil
	case KindBoolean:
		switch strings.ToLower(s) {
		case "true":
			return NewBoolean(true), nil
		case "false":
			return NewBoolean(false), nil
		}
		return Undefined, fmt.Errorf("%w: %q as BOOLEAN", ErrParse, s)
	case KindDate:
		t, err := time.Parse(DateLayout, s)
		if err != nil {
			return Undefined, fmt.Errorf("%w: %q as DATE", ErrParse, s)
		}
		return NewDate(t), nil
	}
	return Undefined, fmt.Errorf("%w: kind %v has no values", ErrParse, k)
}

// Kind returns the kind of the value; Undefined has KindNone.
func (v Value) Kind() Kind { return v.kind }

// IsDefined reports whether the value is present.
func (v Value) IsDefined() bool { return v.kind != KindNone }

// Str returns the string payload of a STRING value ("" otherwise).
func (v Value) Str() string { return v.s }

// Int returns the integer payload of an INTEGER value (0 otherwise).
func (v Value) Int() int64 { return v.i }

// Real returns the float payload of a REAL value (0 otherwise).
func (v Value) Real() float64 { return v.f }

// Bool returns the boolean payload of a BOOLEAN value (false otherwise).
func (v Value) Bool() bool { return v.b }

// Date returns the time payload of a DATE value (zero time otherwise).
func (v Value) Date() time.Time { return v.t }

// String renders the value in surface form. Undefined renders as "⊥".
func (v Value) String() string {
	switch v.kind {
	case KindNone:
		return "⊥"
	case KindString:
		return v.s
	case KindInteger:
		return strconv.FormatInt(v.i, 10)
	case KindReal:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindBoolean:
		return strconv.FormatBool(v.b)
	case KindDate:
		return v.t.Format(DateLayout)
	}
	return "?"
}

// Quote renders the value for display in listings: strings are quoted, all
// other kinds use their surface form.
func (v Value) Quote() string {
	if v.kind == KindString {
		return strconv.Quote(v.s)
	}
	return v.String()
}

// Equal reports whether two values have the same kind and payload. Following
// the paper's semantics for undefined items, Undefined equals nothing — not
// even itself — under Matches; Equal treats two Undefined values as equal
// for storage-level identity only.
func (v Value) Equal(w Value) bool {
	if v.kind != w.kind {
		return false
	}
	switch v.kind {
	case KindNone:
		return true
	case KindString:
		return v.s == w.s
	case KindInteger:
		return v.i == w.i
	case KindReal:
		return v.f == w.f
	case KindBoolean:
		return v.b == w.b
	case KindDate:
		return v.t.Equal(w.t)
	}
	return false
}

// Matches implements retrieval equality: an undefined value matches nothing.
func (v Value) Matches(w Value) bool {
	if !v.IsDefined() || !w.IsDefined() {
		return false
	}
	return v.Equal(w)
}

// Compare orders two values of the same kind: -1, 0, or +1. It returns
// ErrKindMismatch for differing kinds, and ErrNotOrdered when either value
// is undefined or the kind (BOOLEAN) has no order.
func (v Value) Compare(w Value) (int, error) {
	if !v.IsDefined() || !w.IsDefined() {
		return 0, ErrNotOrdered
	}
	if v.kind != w.kind {
		return 0, fmt.Errorf("%w: %v vs %v", ErrKindMismatch, v.kind, w.kind)
	}
	switch v.kind {
	case KindString:
		return strings.Compare(v.s, w.s), nil
	case KindInteger:
		return cmpOrdered(v.i, w.i), nil
	case KindReal:
		return cmpOrdered(v.f, w.f), nil
	case KindDate:
		switch {
		case v.t.Before(w.t):
			return -1, nil
		case v.t.After(w.t):
			return 1, nil
		}
		return 0, nil
	}
	return 0, fmt.Errorf("%w: %v", ErrNotOrdered, v.kind)
}

func cmpOrdered[T int64 | float64](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// Op is a retrieval comparison operator. Its rules are the one definition
// of "a sub-object value satisfies a selection criterion": the query
// package's generic walk applies Holds, and a store that compiles a test
// against its own row encoding must agree with Holds on every decoded
// value.
type Op uint8

// The comparison operators. Unordered kinds (BOOLEAN) support only Eq and
// Ne; undefined values match nothing under every operator.
const (
	Eq Op = iota + 1
	Ne
	Lt
	Le
	Gt
	Ge
	Contains // substring on STRING values
)

var opNames = [...]string{Eq: "=", Ne: "!=", Lt: "<", Le: "<=", Gt: ">", Ge: ">=", Contains: "contains"}

// String names the operator.
func (op Op) String() string {
	if op >= Eq && op <= Contains {
		return opNames[op]
	}
	return "?"
}

// Holds reports whether `a op b` holds. An undefined value on either side
// matches nothing, and neither do values of different kinds, under every
// operator. Contains is a substring test on two STRINGs. Eq and Ne are
// Equal and its negation, so a REAL NaN equals nothing and -0 equals +0.
// The ordering operators hold as OfOrder says of Compare's result; BOOLEAN
// has no order, so they never hold on it.
func (op Op) Holds(a, b Value) bool {
	if !a.IsDefined() || a.kind != b.kind {
		return false
	}
	switch op {
	case Eq:
		return a.Equal(b)
	case Ne:
		return !a.Equal(b)
	case Contains:
		return a.kind == KindString && strings.Contains(a.s, b.s)
	}
	c, err := a.Compare(b)
	return err == nil && op.OfOrder(c)
}

// OfOrder reports whether op accepts a three-way comparison result c
// (negative, zero, positive). Eq and Ne accept a zero and a non-zero c, so
// on the kinds whose equality is their order's (STRING, INTEGER, DATE) a
// compiled test may apply OfOrder to every operator but Contains, which
// accepts no order.
func (op Op) OfOrder(c int) bool {
	switch op {
	case Eq:
		return c == 0
	case Ne:
		return c != 0
	case Lt:
		return c < 0
	case Le:
		return c <= 0
	case Gt:
		return c > 0
	case Ge:
		return c >= 0
	}
	return false
}
