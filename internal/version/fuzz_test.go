package version

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/codec"
	"repro/internal/schema"
)

// FuzzDecodeVersionTree feeds arbitrary bytes to Decode, the version-tree
// section of a snapshot. Decode must never panic, and a tree it accepts
// must encode to bytes that decode to the same tree.
func FuzzDecodeVersionTree(f *testing.F) {
	sch := schema.Figure2()
	m, _, _ := codecTree(sch)
	e := codec.NewEncoder(nil)
	m.Encode(e)
	f.Add(e.Bytes())
	e = codec.NewEncoder(nil)
	NewManager().Encode(e)
	f.Add(e.Bytes())
	schemaFor := func(ver int) (*schema.Schema, error) {
		if ver != 1 {
			return nil, fmt.Errorf("no schema version %d", ver)
		}
		return sch, nil
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(codec.NewDecoder(data), schemaFor)
		if err != nil {
			return
		}
		first := codec.NewEncoder(nil)
		m.Encode(first)
		m2, err := Decode(codec.NewDecoder(first.Bytes()), schemaFor)
		if err != nil {
			t.Fatalf("re-encoded tree refused: %v", err)
		}
		second := codec.NewEncoder(nil)
		m2.Encode(second)
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("tree changed across encode and decode")
		}
	})
}
