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

// TestCorruptBatchRefusedWhole feeds a follower batch records whose
// inner records are bad — a truncated middle record, one naming an unknown
// class, one setting a value on an unknown object, a batch nested in a
// batch — and batch records whose own layout is bad: a count past the
// payload, a count one past the records it holds, trailing bytes after the
// last record. Each must be refused with core.ErrBadRecord and leave the
// follower's state digest and raw view as they were; the intact batch then
// applies and converges with the primary.
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
	// One batch record: create "New", create its Description, set its value.
	tap := drainTap(t, sub, 1)
	if len(tap) != 1 || tap[0][0] != recBatch {
		t.Fatalf("unexpected commit shape: %d records", len(tap))
	}
	batch := tap[0]
	inner, err := splitBatch(batch[1:])
	if err != nil || len(inner) != 3 {
		t.Fatalf("batch holds %d records (%v), want 3", len(inner), err)
	}
	unknownClass := newRecordEncoder(core.RecCreateObject)
	unknownClass.Uint64(uint64(newID) + 10)
	unknownClass.String("NoSuchClass")
	unknownClass.String("Ghost")
	unknownClass.Bool(false)
	unknownObject := newRecordEncoder(core.RecSetValue)
	unknownObject.Uint64(1 << 20)
	item.EncodeValue(unknownObject, item.Inline, NewString("lost"))
	withMiddle := func(rec []byte) []byte {
		out := slices.Clone(inner)
		out[1] = rec
		return encBatch(out)
	}
	truncSet := inner[2][:len(inner[2])-1]
	// withCount rewrites the batch's record count.
	withCount := func(n uint64) []byte {
		_, k := binary.Uvarint(batch[1:])
		out := binary.AppendUvarint([]byte{recBatch}, n)
		return append(out, batch[1+k:]...)
	}

	before, err := rep.StateDigest()
	if err != nil {
		t.Fatal(err)
	}
	objs, rels := rep.RawView().Objects(), rep.RawView().Relationships()
	for _, tc := range []struct {
		name   string
		record []byte
	}{
		{"middle record truncated", withMiddle(inner[1][:len(inner[1])-1])},
		{"middle record names an unknown class", withMiddle(unknownClass.Bytes())},
		{"middle record sets a value on an unknown object", withMiddle(unknownObject.Bytes())},
		{"create then truncated set value", encBatch([][]byte{inner[0], inner[1], truncSet})},
		{"lone truncated record", encBatch([][]byte{truncSet})},
		{"batch nested in a batch", encBatch([][]byte{inner[0], batch})},
		{"count past the payload", withCount(uint64(len(batch)))},
		{"count one past the records", withCount(uint64(len(inner) + 1))},
		{"zero count", withCount(0)},
		{"trailing bytes after the last record", append(slices.Clip(batch), 0)},
	} {
		err := rep.ApplyLogRecords([][]byte{tc.record})
		if !errors.Is(err, core.ErrBadRecord) {
			t.Errorf("%s: got %v, want ErrBadRecord", tc.name, err)
		}
		if after, _ := rep.StateDigest(); after != before {
			t.Errorf("%s: refused record changed the follower's state digest", tc.name)
		}
		v := rep.RawView()
		if _, ok := v.ObjectByName("New"); ok || !slices.Equal(v.Objects(), objs) || !slices.Equal(v.Relationships(), rels) {
			t.Errorf("%s: refused record changed the follower's raw view", tc.name)
		}
	}
	if err := rep.ApplyLogRecords(tap); err != nil {
		t.Fatalf("intact batch after the refusals: %v", err)
	}
	digestsEqual(t, db, rep, "after the intact batch")
}
