package seed

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/item"
)

// Crash-recovery property test: truncating the live write-ahead-log segment
// at every record boundary — and at sampled mid-record offsets — must
// recover a state that is exactly one of the committed prefixes of the
// workload. In particular no truncation may ever surface a torn transaction
// batch: a multi-record check-in either recovers whole or not at all.

// dumpState renders the raw view canonically (IDs excluded: replayed
// databases re-derive IDs, paths and values are the identity).
func dumpState(db *Database) string {
	v := db.RawView()
	var lines []string
	for _, id := range v.Objects() {
		o, ok := v.Object(id)
		if !ok {
			continue
		}
		path := "?"
		if p, ok := item.PathOf(v, id); ok {
			path = p.String()
		}
		lines = append(lines, fmt.Sprintf("O %s %s %s", path, o.Class.QualifiedName(), o.Value.String()))
	}
	for _, id := range v.Relationships() {
		r, ok := v.Relationship(id)
		if !ok {
			continue
		}
		name := "inherits"
		if !r.Inherits {
			name = r.Assoc.Name()
		}
		var ends []string
		for _, e := range r.Ends {
			ep := "?"
			if p, ok := item.PathOf(v, e.Object); ok {
				ep = p.String()
			}
			ends = append(ends, e.Role+"="+ep)
		}
		sort.Strings(ends)
		lines = append(lines, fmt.Sprintf("R %s %s", name, strings.Join(ends, ",")))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// walBoundaries scans one segment file and returns every byte offset that
// ends an intact record (starting at the segment header), replicating the
// documented framing: 16-byte header, then length+crc+payload records.
func walBoundaries(t *testing.T, path string) []int64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const headerSize, recHeader = 16, 8
	offsets := []int64{headerSize}
	off := headerSize
	for off+recHeader <= len(data) {
		length := binary.LittleEndian.Uint32(data[off : off+4])
		crc := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if length == 0xFFFFFFFF && crc == 0x5EA1C0DE { // seal marker
			off += recHeader
			offsets = append(offsets, int64(off))
			continue
		}
		end := off + recHeader + int(length)
		if end > len(data) {
			break
		}
		off = end
		offsets = append(offsets, int64(off))
	}
	return offsets
}

// truncatedCopy clones the store directory with the given WAL segment
// truncated to size bytes — the on-disk image a crash at that point leaves.
func truncatedCopy(t *testing.T, srcDir, segName string, size int64) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(srcDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(srcDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if e.Name() == segName && int64(len(data)) > size {
			data = data[:size]
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func TestCrashRecoveryCommittedPrefix(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Schema: Figure3Schema()})
	if err != nil {
		t.Fatal(err)
	}

	// Every committed unit (a one-operation write or a transaction: one
	// batch record either way) captures the canonical state it leaves
	// behind; a recovered database must land exactly on one of these.
	var states []string
	capture := func() { states = append(states, dumpState(db)) }
	capture() // fresh: schema record only

	o1, err := db.CreateObject("Data", "O1")
	if err != nil {
		t.Fatal(err)
	}
	capture()
	o2, err := db.CreateObject("Action", "O2")
	if err != nil {
		t.Fatal(err)
	}
	capture()
	d1, err := db.CreateSubObject(o1, "Description")
	if err != nil {
		t.Fatal(err)
	}
	capture()
	if err := db.SetValue(d1, NewString("v1")); err != nil {
		t.Fatal(err)
	}
	capture()
	// A one-operation CreateValueObject is a batch of two engine records:
	// no truncation may recover the sub-object without its value.
	if _, err := db.CreateValueObject(o2, "Description", NewString("o2d")); err != nil {
		t.Fatal(err)
	}
	capture()

	// A multi-record batch: its byte range in the log is the interval where
	// every truncation must fall back to the pre-batch state.
	preBatch := states[len(states)-1]
	sizeBefore := db.Stats().LogBytes
	tx, err := db.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.SetValue(d1, NewString("b1")); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.CreateObject("Data", "B1"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.CreateValueObject(o1, "Text", NewString("")); err == nil {
		t.Fatal("value on structured Text accepted")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	capture()
	sizeAfter := db.Stats().LogBytes

	// A single-record transaction and two interleaved disjoint
	// transactions committed back to back.
	tx2, err := db.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx2.SetValue(d1, NewString("s1")); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	capture()
	txA, err := db.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	txB, err := db.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	if err := txA.SetValue(d1, NewString("c1")); err != nil {
		t.Fatal(err)
	}
	ca, err := txB.CreateObject("Data", "C2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := txA.CreateObject("Data", "C1"); err != nil {
		t.Fatal(err)
	}
	if _, err := txB.CreateValueObject(ca, "Description", NewString("c2d")); err != nil {
		t.Fatal(err)
	}
	if err := txA.Commit(); err != nil {
		t.Fatal(err)
	}
	capture()
	if err := txB.Commit(); err != nil {
		t.Fatal(err)
	}
	capture()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	segName := "wal-000001.seed"
	boundaries := walBoundaries(t, filepath.Join(dir, segName))
	if len(boundaries) < 10 {
		t.Fatalf("workload produced only %d records", len(boundaries))
	}

	recoveredAt := func(size int64) string {
		cp := truncatedCopy(t, dir, segName, size)
		re, err := Open(cp, Options{Schema: Figure3Schema()})
		if err != nil {
			t.Fatalf("reopen truncated at %d: %v", size, err)
		}
		defer re.Close()
		return dumpState(re)
	}
	stateIndex := func(size int64, dump string) int {
		for i, s := range states {
			if s == dump {
				return i
			}
		}
		t.Fatalf("truncation at %d recovered a state outside every committed prefix:\n%s", size, dump)
		return -1
	}

	// Every record boundary — and a sample of mid-record offsets — recovers
	// a committed prefix, monotonically in the truncation point.
	last := -1
	for _, b := range boundaries {
		dump := recoveredAt(b)
		idx := stateIndex(b, dump)
		if idx < last {
			t.Errorf("boundary %d: state index went backwards (%d after %d)", b, idx, last)
		}
		last = idx
		for _, mid := range []int64{b + 1, b + 5} {
			if mid >= boundaries[len(boundaries)-1] {
				continue
			}
			if midIdx := stateIndex(mid, recoveredAt(mid)); midIdx > idx {
				t.Errorf("mid-record truncation at %d advanced past its boundary state", mid)
			}
		}
	}
	if final := recoveredAt(boundaries[len(boundaries)-1]); final != states[len(states)-1] {
		t.Errorf("full log does not recover the final state")
	}

	// No torn batch: every truncation strictly inside the multi-record
	// batch's byte range recovers exactly the pre-batch state.
	for _, size := range []int64{sizeBefore + 1, (sizeBefore + sizeAfter) / 2, sizeAfter - 1} {
		if got := recoveredAt(size); got != preBatch {
			t.Errorf("truncation at %d inside the batch surfaced a torn state:\n%s", size, got)
		}
	}

	// A database reopened over a torn batch keeps working: recovery cuts
	// the torn record off and appends nothing of its own, and later appends
	// replay cleanly.
	cp := truncatedCopy(t, dir, segName, (sizeBefore+sizeAfter)/2)
	re, err := Open(cp, Options{Schema: Figure3Schema()})
	if err != nil {
		t.Fatal(err)
	}
	if got := dumpState(re); got != preBatch {
		t.Fatalf("torn-batch reopen: wrong base state:\n%s", got)
	}
	if got := re.Stats().LogBytes; got != sizeBefore {
		t.Errorf("torn-batch reopen: log holds %d bytes, want the %d before the batch", got, sizeBefore)
	}
	if _, err := re.CreateObject("Data", "AfterTear"); err != nil {
		t.Fatal(err)
	}
	want := dumpState(re)
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2, err := Open(cp, Options{Schema: Figure3Schema()})
	if err != nil {
		t.Fatalf("second reopen after torn batch: %v", err)
	}
	defer re2.Close()
	if got := dumpState(re2); got != want {
		t.Errorf("state after continuing over a torn batch diverged:\n got %s\nwant %s", got, want)
	}
}
