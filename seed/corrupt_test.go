package seed

import (
	"encoding/binary"
	"path/filepath"
	"testing"
)

// snapshotCounts locates the counts of a snapshot payload that size
// allocations: the symbol-table count, the items blob with the object count
// at its head, and the dirty count. It walks the layout documented in
// snapshot.go with encoding/binary alone, independent of the decoder under
// test.
type snapshotCounts struct {
	symCount, blobLen, dirtyCount int // offsets of the varints
}

func locateCounts(t *testing.T, p []byte) snapshotCounts {
	t.Helper()
	off := 0
	uvarint := func() uint64 {
		v, n := binary.Uvarint(p[off:])
		if n <= 0 {
			t.Fatalf("bad uvarint at %d", off)
		}
		off += n
		return v
	}
	varint := func() int64 {
		v, n := binary.Varint(p[off:])
		if n <= 0 {
			t.Fatalf("bad varint at %d", off)
		}
		off += n
		return v
	}
	skipStrings := func(n int64) {
		for ; n > 0; n-- {
			off += int(uvarint())
		}
	}
	var c snapshotCounts
	uvarint() // format
	uvarint() // nextID
	skipStrings(varint())
	c.symCount = off
	skipStrings(varint())
	c.blobLen = off
	off += int(uvarint())
	c.dirtyCount = off
	return c
}

// replaceVarint rewrites the signed varint at off in p to v.
func replaceVarint(p []byte, off int, v int64) []byte {
	_, n := binary.Varint(p[off:])
	out := append([]byte(nil), p[:off]...)
	out = binary.AppendVarint(out, v)
	return append(out, p[off+n:]...)
}

// replaceObjectCount rewrites the object count at the head of the items
// blob whose length prefix sits at off, fixing the prefix up.
func replaceObjectCount(p []byte, off int, v int64) []byte {
	blobLen, n := binary.Uvarint(p[off:])
	body := p[off+n : off+n+int(blobLen)]
	_, cn := binary.Varint(body)
	newBody := binary.AppendVarint(nil, v)
	newBody = append(newBody, body[cn:]...)
	out := append([]byte(nil), p[:off]...)
	out = binary.AppendUvarint(out, uint64(len(newBody)))
	out = append(out, newBody...)
	return append(out, p[off+n+int(blobLen):]...)
}

// TestCorruptSnapshotCountsRefused rewrites each allocation-sizing count
// of a real snapshot to -1 and to more than the payload holds: applying it
// must fail with an error — never panic — and leave the follower on the
// state it had.
func TestCorruptSnapshotCountsRefused(t *testing.T) {
	db := goldenDB(t, filepath.Join(t.TempDir(), "db"))
	defer db.Close()
	db.mu.RLock()
	snap, err := db.encodeSnapshot()
	db.mu.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	c := locateCounts(t, snap)

	rep := NewFollower()
	if err := rep.ApplyLogSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	before, err := rep.StateDigest()
	if err != nil {
		t.Fatal(err)
	}
	huge := int64(len(snap) + 1)
	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"symbols=-1", replaceVarint(snap, c.symCount, -1)},
		{"symbols=huge", replaceVarint(snap, c.symCount, huge)},
		{"objects=-1", replaceObjectCount(snap, c.blobLen, -1)},
		{"objects=huge", replaceObjectCount(snap, c.blobLen, huge)},
		{"dirty=-1", replaceVarint(snap, c.dirtyCount, -1)},
		{"dirty=huge", replaceVarint(snap, c.dirtyCount, huge)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := rep.ApplyLogSnapshot(tc.payload); err == nil {
				t.Fatal("corrupt snapshot applied")
			}
			after, err := rep.StateDigest()
			if err != nil {
				t.Fatal(err)
			}
			if after != before {
				t.Error("refused snapshot changed the follower's state")
			}
		})
	}
}
