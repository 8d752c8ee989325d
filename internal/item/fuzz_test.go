package item_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/item"
	"repro/internal/schema"
	"repro/internal/value"
)

// FuzzDecodeItem decodes arbitrary bytes as a value, an object and a
// relationship, in both string modes, and as a symbol table. No input may
// panic a decoder. An accepted item must survive encode and decode: the
// second decode yields the same item, compared through its encoding (which
// is exact for every field, NaN reals included).
func FuzzDecodeItem(f *testing.F) {
	sch := schema.Figure3()
	// Symbol mode decodes against a fixed table; re-encoding interns into
	// the same table, so a decoded item re-encodes to symbols it holds.
	tab := item.NewSymTab()
	for _, s := range []string{"Data", "Thing.Revised", "Write", "Access", "Alarms", "from", "by", "Revised"} {
		tab.Intern(s)
	}
	modes := map[string]item.Strings{"inline": item.Inline, "symbols": tab}
	for _, strs := range modes {
		o := item.Object{ID: 3, Class: sch.MustClass("Thing.Revised"), Parent: 1, Role: "Revised",
			Index: item.NoIndex, Value: value.NewDate(time.Date(1986, 2, 5, 0, 0, 0, 0, time.UTC))}
		r := item.Relationship{ID: 7, Assoc: sch.MustAssociation("Write"),
			Ends: []item.End{{Role: "by", Object: 2}, {Role: "from", Object: 1}}}
		for _, enc := range []func(*codec.Encoder){
			func(e *codec.Encoder) { item.EncodeValue(e, strs, value.NewString("Alarms")) },
			func(e *codec.Encoder) { item.EncodeObject(e, strs, &o) },
			func(e *codec.Encoder) { item.EncodeRelationship(e, strs, &r) },
		} {
			e := codec.NewEncoder(nil)
			enc(e)
			f.Add(e.Bytes())
		}
	}
	e := codec.NewEncoder(nil)
	item.EncodeSymTab(e, tab)
	f.Add(e.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		for mode, strs := range modes {
			stable(t, mode+" value", data, func(d *codec.Decoder) func(*codec.Encoder) {
				v := item.DecodeValue(d, strs)
				return func(e *codec.Encoder) { item.EncodeValue(e, strs, v) }
			})
			stable(t, mode+" object", data, func(d *codec.Decoder) func(*codec.Encoder) {
				o := item.DecodeObject(d, strs, sch)
				return func(e *codec.Encoder) { item.EncodeObject(e, strs, &o) }
			})
			stable(t, mode+" relationship", data, func(d *codec.Decoder) func(*codec.Encoder) {
				r := item.DecodeRelationship(d, strs, sch)
				return func(e *codec.Encoder) { item.EncodeRelationship(e, strs, &r) }
			})
		}
		stable(t, "symbol table", data, func(d *codec.Decoder) func(*codec.Encoder) {
			got := item.DecodeSymTab(d)
			return func(e *codec.Encoder) { item.EncodeSymTab(e, got) }
		})
	})
}

// stable decodes data with decode; if that succeeds, it encodes the result,
// decodes the encoding again and requires the second encoding to match the
// first.
func stable(t *testing.T, what string, data []byte, decode func(*codec.Decoder) func(*codec.Encoder)) {
	t.Helper()
	d := codec.NewDecoder(data)
	encode := decode(d)
	if d.Err() != nil {
		return
	}
	first := codec.NewEncoder(nil)
	encode(first)
	d = codec.NewDecoder(first.Bytes())
	encode = decode(d)
	if d.Err() != nil {
		t.Fatalf("%s: re-encoding refused: %v", what, d.Err())
	}
	second := codec.NewEncoder(nil)
	encode(second)
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("%s: changed across encode and decode", what)
	}
}
