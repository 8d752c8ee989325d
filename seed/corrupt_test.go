package seed

import (
	"encoding/binary"
	"errors"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/item"
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

// TestCorruptBatchRefusedWhole feeds a follower a transaction batch whose
// middle record is bad — truncated, naming an unknown class, setting a value
// on an unknown object — and the same faults as a lone record and as a
// batch opened twice. Each must be refused with core.ErrBadRecord and leave
// the follower's state digest and raw view as they were; the intact batch
// then applies and converges with the primary.
func TestCorruptBatchRefusedWhole(t *testing.T) {
	db := openDB(t, filepath.Join(t.TempDir(), "db"), Options{Schema: Figure3Schema(), Clock: fixedClock()})
	defer db.Close()
	create(t, db, "Data", "Alarms")
	rep, sub := bootstrapReplica(t, db)

	tx, err := db.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	newID, err := tx.CreateObject("Data", "New")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.CreateValueObject(newID, "Description", NewString("fresh")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// recTxBegin, create "New", create its Description, set its value, recTxEnd.
	batch := drainTap(t, sub, 5)
	if len(batch) != 5 || batch[0][0] != recTxBegin || batch[4][0] != recTxEnd {
		t.Fatalf("unexpected batch shape: %d records", len(batch))
	}
	unknownClass := newRecordEncoder(core.RecCreateObject)
	unknownClass.Uint64(uint64(newID) + 10)
	unknownClass.String("NoSuchClass")
	unknownClass.String("Ghost")
	unknownClass.Bool(false)
	unknownObject := newRecordEncoder(core.RecSetValue)
	unknownObject.Uint64(1 << 20)
	item.EncodeValue(unknownObject, item.Inline, NewString("lost"))
	withMiddle := func(rec []byte) [][]byte {
		out := slices.Clone(batch)
		out[2] = rec
		return out
	}
	truncSet := batch[3][:len(batch[3])-1]

	before, err := rep.StateDigest()
	if err != nil {
		t.Fatal(err)
	}
	objs, rels := rep.RawView().Objects(), rep.RawView().Relationships()
	for _, tc := range []struct {
		name    string
		records [][]byte
	}{
		{"middle record truncated", withMiddle(batch[2][:len(batch[2])-1])},
		{"middle record names an unknown class", withMiddle(unknownClass.Bytes())},
		{"middle record sets a value on an unknown object", withMiddle(unknownObject.Bytes())},
		{"create then truncated set value", [][]byte{batch[0], batch[1], truncSet, batch[4]}},
		{"lone truncated record", [][]byte{truncSet}},
		{"lone record naming an unknown class", [][]byte{unknownClass.Bytes()}},
		{"batch begun inside a batch", [][]byte{batch[0], batch[1], batch[0]}},
	} {
		err := rep.ApplyLogRecords(tc.records)
		if !errors.Is(err, core.ErrBadRecord) {
			t.Errorf("%s: got %v, want ErrBadRecord", tc.name, err)
		}
		if after, _ := rep.StateDigest(); after != before {
			t.Errorf("%s: refused records changed the follower's state digest", tc.name)
		}
		v := rep.RawView()
		if _, ok := v.ObjectByName("New"); ok || !slices.Equal(v.Objects(), objs) || !slices.Equal(v.Relationships(), rels) {
			t.Errorf("%s: refused records changed the follower's raw view", tc.name)
		}
	}
	if err := rep.ApplyLogRecords(batch); err != nil {
		t.Fatalf("intact batch after the refusals: %v", err)
	}
	digestsEqual(t, db, rep, "after the intact batch")
}
