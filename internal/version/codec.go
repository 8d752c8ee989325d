package version

import (
	"fmt"
	"sort"

	"repro/internal/ident"
	"repro/internal/item"
	"repro/internal/schema"
	"repro/internal/storage"
)

// Binary encoding of the whole version tree, used by database snapshots.
// Each node's delta is encoded with the schema version the node was created
// under, and decoded against the same schema version — old versions stay
// interpretable after schema evolution.

// Encode appends the version tree to an encoder.
func (m *Manager) Encode(e *storage.Encoder) {
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
				item.EncodeObject(e, &f.Obj)
			} else {
				item.EncodeRelationship(e, &f.Rel)
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
// recorded schema version number.
func Decode(d *storage.Decoder, schemaFor func(ver int) (*schema.Schema, error)) (*Manager, error) {
	m := NewManager()
	count, err := d.Int()
	if err != nil {
		return nil, err
	}
	for i := 0; i < count; i++ {
		num, err := d.Ints()
		if err != nil {
			return nil, err
		}
		parentNum, err := d.Ints()
		if err != nil {
			return nil, err
		}
		note, err := d.String()
		if err != nil {
			return nil, err
		}
		at, err := d.Time()
		if err != nil {
			return nil, err
		}
		schemaVer, err := d.Int()
		if err != nil {
			return nil, err
		}
		branches, err := d.Int()
		if err != nil {
			return nil, err
		}
		sch, err := schemaFor(schemaVer)
		if err != nil {
			return nil, fmt.Errorf("version: node %v: %w", num, err)
		}
		n := &Node{
			Num:       num,
			Note:      note,
			CreatedAt: at,
			SchemaVer: schemaVer,
			branches:  branches,
			delta:     make(map[item.ID]Frozen),
		}
		deltaLen, err := d.Int()
		if err != nil {
			return nil, err
		}
		for j := 0; j < deltaLen; j++ {
			kb, err := d.Byte()
			if err != nil {
				return nil, err
			}
			var f Frozen
			f.Kind = item.Kind(kb)
			switch f.Kind {
			case item.KindObject:
				f.Obj, err = item.DecodeObject(d, sch)
			case item.KindRelationship:
				f.Rel, err = item.DecodeRelationship(d, sch)
			default:
				return nil, fmt.Errorf("version: bad frozen kind %d", kb)
			}
			if err != nil {
				return nil, err
			}
			n.delta[f.ID()] = f
		}
		if len(parentNum) > 0 {
			p, ok := m.nodes[ident.VersionNumber(parentNum).String()]
			if !ok {
				return nil, fmt.Errorf("%w: parent %v of %v", ErrUnknownVersion, parentNum, num)
			}
			n.parent = p
			p.children = append(p.children, n)
		}
		m.nodes[ident.VersionNumber(num).String()] = n
	}
	baseNum, err := d.Ints()
	if err != nil {
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
