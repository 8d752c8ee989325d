package item

import (
	"errors"
	"fmt"

	"repro/internal/codec"
	"repro/internal/schema"
	"repro/internal/value"
)

// Binary encoding of item states. Classes and associations are referenced by
// qualified name; the decoder resolves them against the schema version in
// effect for the state being decoded, which is exactly why the paper
// requires schema versions for interpreting old data versions.
//
// The decoders follow the codec.Decoder contract: they read a whole item,
// record every malformation in the decoder (the first one is kept), and
// resolve names against the schema only if the bytes were sound. The
// caller checks Err once.

// ErrDecode reports a malformed item encoding.
var ErrDecode = errors.New("item: malformed encoding")

// Strings is the item codec's one parameter: how the strings an item
// carries — class and association names, object names, roles, string
// values — are written. Inline writes each in place, length-prefixed
// (version deltas, journal records). A *SymTab writes each as the uvarint
// of its symbol, the table itself serialized once ahead of the items by
// EncodeSymTab (snapshots): encoding interns into the table, decoding
// resolves against the table DecodeSymTab read.
type Strings interface {
	putString(e *codec.Encoder, s string)
	getString(d *codec.Decoder) string
}

// Inline writes every string in place.
var Inline Strings = inline{}

type inline struct{}

func (inline) putString(e *codec.Encoder, s string) { e.String(s) }
func (inline) getString(d *codec.Decoder) string    { return d.String() }

func (t *SymTab) putString(e *codec.Encoder, s string) { e.Uint64(uint64(t.Intern(s))) }

func (t *SymTab) getString(d *codec.Decoder) string {
	u := d.Uint64()
	if n := t.Len(); u >= uint64(n) {
		d.Fail(fmt.Errorf("%w: symbol %d of %d", ErrDecode, u, n))
		return ""
	}
	return t.Str(Sym(u))
}

// EncodeSymTab appends the table's strings in symbol order.
func EncodeSymTab(e *codec.Encoder, t *SymTab) {
	strs := t.Strs()
	e.Int(len(strs))
	for _, s := range strs {
		e.String(s)
	}
}

// DecodeSymTab reads a serialized table back, every string at its symbol.
func DecodeSymTab(d *codec.Decoder) *SymTab {
	strs := make([]string, d.Count())
	for i := range strs {
		strs[i] = d.String()
	}
	return symTabOf(strs)
}

// EncodeValue appends a typed value.
func EncodeValue(e *codec.Encoder, strs Strings, v value.Value) {
	e.Byte(byte(v.Kind()))
	switch v.Kind() {
	case value.KindString:
		strs.putString(e, v.Str())
	case value.KindInteger:
		e.Int64(v.Int())
	case value.KindReal:
		e.Float64(v.Real())
	case value.KindBoolean:
		e.Bool(v.Bool())
	case value.KindDate:
		e.Time(v.Date())
	}
}

// DecodeValue reads a typed value.
func DecodeValue(d *codec.Decoder, strs Strings) value.Value {
	switch kb := d.Byte(); value.Kind(kb) {
	case value.KindNone:
		return value.Undefined
	case value.KindString:
		return value.NewString(strs.getString(d))
	case value.KindInteger:
		return value.NewInteger(d.Int64())
	case value.KindReal:
		return value.NewReal(d.Float64())
	case value.KindBoolean:
		return value.NewBoolean(d.Bool())
	case value.KindDate:
		return value.NewDate(d.Time())
	default:
		d.Fail(fmt.Errorf("%w: value kind %d", ErrDecode, kb))
		return value.Undefined
	}
}

// EncodeObject appends a full object state.
func EncodeObject(e *codec.Encoder, strs Strings, o *Object) {
	e.Uint64(uint64(o.ID))
	strs.putString(e, o.Class.QualifiedName())
	strs.putString(e, o.Name)
	e.Uint64(uint64(o.Parent))
	strs.putString(e, o.Role)
	e.Int(o.Index)
	EncodeValue(e, strs, o.Value)
	e.Bool(o.Pattern)
	e.Bool(o.Deleted)
}

// DecodeObject reads an object state, resolving the class against s.
func DecodeObject(d *codec.Decoder, strs Strings, s *schema.Schema) Object {
	o := Object{ID: ID(d.Uint64())}
	cls := strs.getString(d)
	o.Name = strs.getString(d)
	o.Parent = ID(d.Uint64())
	o.Role = strs.getString(d)
	o.Index = d.Int()
	o.Value = DecodeValue(d, strs)
	o.Pattern = d.Bool()
	o.Deleted = d.Bool()
	if d.Err() != nil {
		return Object{}
	}
	c, err := s.Class(cls)
	if err != nil {
		d.Fail(fmt.Errorf("%w: %v", ErrDecode, err))
		return Object{}
	}
	o.Class = c
	return o
}

// EncodeRelationship appends a full relationship state. An inherits
// relationship has no association; it writes the empty name.
func EncodeRelationship(e *codec.Encoder, strs Strings, r *Relationship) {
	e.Uint64(uint64(r.ID))
	e.Bool(r.Inherits)
	if r.Inherits {
		strs.putString(e, "")
	} else {
		strs.putString(e, r.Assoc.Name())
	}
	EncodeEnds(e, strs, r.Ends)
	e.Bool(r.Pattern)
	e.Bool(r.Deleted)
}

// DecodeRelationship reads a relationship state, resolving the association
// against s.
func DecodeRelationship(d *codec.Decoder, strs Strings, s *schema.Schema) Relationship {
	r := Relationship{ID: ID(d.Uint64()), Inherits: d.Bool()}
	name := strs.getString(d)
	r.Ends = DecodeEnds(d, strs)
	r.Pattern = d.Bool()
	r.Deleted = d.Bool()
	if d.Err() != nil {
		return Relationship{}
	}
	if !r.Inherits {
		a, err := s.Association(name)
		if err != nil {
			d.Fail(fmt.Errorf("%w: %v", ErrDecode, err))
			return Relationship{}
		}
		r.Assoc = a
	}
	return r
}

// EncodeEnds appends a relationship's end list: the count, then role and
// object per end.
func EncodeEnds(e *codec.Encoder, strs Strings, ends []End) {
	e.Int(len(ends))
	for _, end := range ends {
		strs.putString(e, end.Role)
		e.Uint64(uint64(end.Object))
	}
}

// maxEnds bounds a decoded relationship's end count.
const maxEnds = 64

// DecodeEnds reads an end list written by EncodeEnds; more than maxEnds
// ends is corrupt.
func DecodeEnds(d *codec.Decoder, strs Strings) []End {
	n := d.Count()
	if n > maxEnds {
		d.Fail(fmt.Errorf("%w: %d ends", ErrDecode, n))
		return nil
	}
	ends := make([]End, n)
	for i := range ends {
		ends[i] = End{Role: strs.getString(d), Object: ID(d.Uint64())}
	}
	return ends
}
