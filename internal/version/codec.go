package version

import (
	"fmt"
	"sort"

	"repro/internal/codec"
	"repro/internal/ident"
	"repro/internal/item"
	"repro/internal/schema"
)

// Binary encoding of the whole version tree, used by database snapshots.
// Each node's delta is encoded with the schema version the node was created
// under, and decoded against the same schema version — old versions stay
// interpretable after schema evolution.

// Encode appends the version tree to an encoder.
func (m *Manager) Encode(e *codec.Encoder) {
	// Encode by path depth, then number, so parents decode before children.
	byDepth := m.List()
	sort.SliceStable(byDepth, func(i, j int) bool { return len(byDepth[i].Path()) < len(byDepth[j].Path()) })
	e.Int(len(byDepth))
	for _, n := range byDepth {
		e.Ints(n.Num)
		if n.parent != nil {
			e.Ints(n.parent.Num)
		} else {
			e.Ints(nil)
		}
		e.String(n.Note)
		e.Time(n.CreatedAt)
		e.Int(n.SchemaVer)
		e.Int(n.branches)
		e.Int(len(n.delta))
		for _, id := range n.DeltaIDs() {
			f := n.delta[id]
			e.Byte(byte(f.Kind))
			if f.Kind == item.KindObject {
				item.EncodeObject(e, item.Inline, &f.Obj)
			} else {
				item.EncodeRelationship(e, item.Inline, &f.Rel)
			}
		}
	}
	if m.base != nil {
		e.Ints(m.base.Num)
	} else {
		e.Ints(nil)
	}
}

// Decode reconstructs a version tree. schemaFor resolves the schema for a
// recorded schema version number. Decode reads each node whole and checks
// the decoder before it resolves the node's schema or links it into the
// tree, so a short or corrupt encoding reports the decoder's first error.
func Decode(d *codec.Decoder, schemaFor func(ver int) (*schema.Schema, error)) (*Manager, error) {
	m := NewManager()
	count := d.Count()
	for i := 0; i < count; i++ {
		num, parentNum := d.Ints(), d.Ints()
		n := &Node{
			Num:       num,
			Note:      d.String(),
			CreatedAt: d.Time(),
			SchemaVer: d.Int(),
			branches:  d.Int(),
			delta:     make(map[item.ID]Frozen),
		}
		if err := d.Err(); err != nil {
			return nil, err
		}
		sch, err := schemaFor(n.SchemaVer)
		if err != nil {
			return nil, fmt.Errorf("version: node %v: %w", num, err)
		}
		deltaLen := d.Count()
		for j := 0; j < deltaLen; j++ {
			var f Frozen
			switch f.Kind = item.Kind(d.Byte()); f.Kind {
			case item.KindObject:
				f.Obj = item.DecodeObject(d, item.Inline, sch)
			case item.KindRelationship:
				f.Rel = item.DecodeRelationship(d, item.Inline, sch)
			default:
				d.Fail(fmt.Errorf("version: bad frozen kind %d", f.Kind))
			}
			n.delta[f.ID()] = f
		}
		if err := d.Err(); err != nil {
			return nil, err
		}
		if len(parentNum) > 0 {
			p, ok := m.nodes[ident.VersionNumber(parentNum).String()]
			if !ok {
				return nil, fmt.Errorf("%w: parent %v of %v", ErrUnknownVersion, parentNum, num)
			}
			n.parent = p
			p.children = append(p.children, n)
		}
		key := ident.VersionNumber(num).String()
		if _, dup := m.nodes[key]; dup {
			return nil, fmt.Errorf("version: node %v encoded twice", num)
		}
		m.nodes[key] = n
	}
	baseNum := d.Ints()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if len(baseNum) > 0 {
		b, ok := m.nodes[ident.VersionNumber(baseNum).String()]
		if !ok {
			return nil, fmt.Errorf("%w: base %v", ErrUnknownVersion, baseNum)
		}
		m.base = b
	}
	return m, nil
}
