package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// tinySegments makes every few records cross the segment cap.
var tinySegments = Options{SegmentSize: 128}

// fillWAL appends n numbered records and closes the WAL.
func fillWAL(t *testing.T, dir string, opts Options, n int) {
	t.Helper()
	w := openWALT(t, dir, opts, nil)
	for i := 0; i < n; i++ {
		if err := w.Append([]byte(fmt.Sprintf("record-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// replayAll reopens the WAL and returns every replayed record as a string.
func replayAll(t *testing.T, dir string, opts Options) []string {
	t.Helper()
	var got []string
	w, err := OpenWAL(dir, opts, 1, func(p []byte) error {
		got = append(got, string(p))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	return got
}

func TestWALRotationAndReplayAcrossSegments(t *testing.T) {
	dir := t.TempDir()
	fillWAL(t, dir, tinySegments, 50)
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected several segments, got %v", segs)
	}
	got := replayAll(t, dir, tinySegments)
	if len(got) != 50 {
		t.Fatalf("replayed %d records, want 50", len(got))
	}
	for i, s := range got {
		if s != fmt.Sprintf("record-%03d", i) {
			t.Fatalf("record %d out of order: %q", i, s)
		}
	}
}

func TestWALTornTailAcrossSegmentBoundary(t *testing.T) {
	dir := t.TempDir()
	fillWAL(t, dir, tinySegments, 50)
	segs, _ := listSegments(dir)
	last := segs[len(segs)-1]
	// Tear the tail of the LAST segment: benign, truncated away.
	path := filepath.Join(dir, SegmentFile(last))
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{200, 0, 0, 0, 7}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	got := replayAll(t, dir, tinySegments)
	if len(got) != 50 {
		t.Fatalf("replayed %d records after torn last-segment tail, want 50", len(got))
	}
}

// TestWALRotationCrashHeals reconstructs the one benign rotation-crash
// shape — unsealed second-to-last segment, empty last segment — and checks
// that recovery resumes the unsealed segment as the tail instead of
// failing with ErrCorrupt.
func TestWALRotationCrashHeals(t *testing.T) {
	dir := t.TempDir()
	w := openWALT(t, dir, Options{SegmentSize: 256}, nil)
	for i := 0; w.SegmentCount() < 2; i++ {
		if err := w.Append([]byte(fmt.Sprintf("heal-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	if len(segs) != 2 {
		t.Fatalf("segments = %v, want exactly 2", segs)
	}
	// The tail (segment 2) must be empty for the shape to match a crash
	// mid-rotation; rotation happens on the append that crosses the cap,
	// so it is.
	info, err := os.Stat(filepath.Join(dir, SegmentFile(2)))
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != segHeaderSize {
		t.Fatalf("tail segment size = %d, want bare header", info.Size())
	}
	// Chop the seal marker off segment 1: the pre-seal crash state.
	path1 := filepath.Join(dir, SegmentFile(1))
	info1, err := os.Stat(path1)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path1, info1.Size()-recordHeaderSize); err != nil {
		t.Fatal(err)
	}

	var got []string
	w2, err := OpenWAL(dir, Options{SegmentSize: 256}, 1, func(p []byte) error {
		got = append(got, string(p))
		return nil
	})
	if err != nil {
		t.Fatalf("rotation-crash shape did not heal: %v", err)
	}
	if len(got) == 0 || got[0] != "heal-000" {
		t.Fatalf("records lost in heal: %v", got)
	}
	// The empty successor is gone and segment 1 is the tail again.
	if segs, _ := listSegments(dir); len(segs) != 1 || segs[0] != 1 {
		t.Fatalf("segments after heal = %v", segs)
	}
	if err := w2.Append([]byte("post-heal")); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	got2 := replayAll(t, dir, Options{SegmentSize: 256})
	if got2[len(got2)-1] != "post-heal" {
		t.Fatalf("append after heal lost: %v", got2)
	}
}

// TestWALRotationCrashHealsTornSuccessor covers the earlier crash point:
// the successor's directory entry exists but its 16-byte header never
// fully reached disk.
func TestWALRotationCrashHealsTornSuccessor(t *testing.T) {
	dir := t.TempDir()
	w := openWALT(t, dir, Options{SegmentSize: 256}, nil)
	n := 0
	for ; w.SegmentCount() < 2; n++ {
		if err := w.Append([]byte(fmt.Sprintf("heal-%03d", n))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Strip the seal from segment 1 and truncate segment 2's header.
	info1, err := os.Stat(filepath.Join(dir, SegmentFile(1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(filepath.Join(dir, SegmentFile(1)), info1.Size()-recordHeaderSize); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(filepath.Join(dir, SegmentFile(2)), 7); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, dir, Options{SegmentSize: 256})
	if len(got) != n {
		t.Fatalf("healed replay found %d records, want %d", len(got), n)
	}
}

func TestWALMissingFinalSegment(t *testing.T) {
	dir := t.TempDir()
	fillWAL(t, dir, tinySegments, 50)
	segs, _ := listSegments(dir)
	last := segs[len(segs)-1]
	if err := os.Remove(filepath.Join(dir, SegmentFile(last))); err != nil {
		t.Fatal(err)
	}
	_, err := OpenWAL(dir, tinySegments, 1, nil)
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("missing final segment: %v", err)
	}
}

func TestWALMissingMiddleSegment(t *testing.T) {
	dir := t.TempDir()
	fillWAL(t, dir, tinySegments, 50)
	segs, _ := listSegments(dir)
	if len(segs) < 3 {
		t.Fatalf("need >= 3 segments, got %v", segs)
	}
	if err := os.Remove(filepath.Join(dir, SegmentFile(segs[1]))); err != nil {
		t.Fatal(err)
	}
	_, err := OpenWAL(dir, tinySegments, 1, nil)
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("missing middle segment: %v", err)
	}
}

func TestWALCorruptCRCMidSealedSegment(t *testing.T) {
	dir := t.TempDir()
	fillWAL(t, dir, tinySegments, 50)
	// Flip one payload byte in the FIRST (sealed) segment: unlike a torn
	// tail this is unrecoverable — acked records after it would be lost.
	path := filepath.Join(dir, SegmentFile(1))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[segHeaderSize+recordHeaderSize+2] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenWAL(dir, tinySegments, 1, nil)
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("corrupt CRC mid sealed segment: %v", err)
	}
}

func TestWALTruncatedSealedSegment(t *testing.T) {
	dir := t.TempDir()
	fillWAL(t, dir, tinySegments, 50)
	// Chop the seal marker (and part of the last record) off segment 1.
	path := filepath.Join(dir, SegmentFile(1))
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-recordHeaderSize-3); err != nil {
		t.Fatal(err)
	}
	_, err = OpenWAL(dir, tinySegments, 1, nil)
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated sealed segment: %v", err)
	}
}

func TestWALDataAfterSeal(t *testing.T) {
	dir := t.TempDir()
	fillWAL(t, dir, tinySegments, 50)
	path := filepath.Join(dir, SegmentFile(1))
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("stray")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	_, err = OpenWAL(dir, tinySegments, 1, nil)
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("data after seal marker: %v", err)
	}
}

func TestWALSegmentIndexMismatch(t *testing.T) {
	dir := t.TempDir()
	fillWAL(t, dir, Options{}, 3)
	path := filepath.Join(dir, SegmentFile(1))
	raw, _ := os.ReadFile(path)
	binary.LittleEndian.PutUint64(raw[8:16], 7) // header claims index 7
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenWAL(dir, Options{}, 1, nil)
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("segment index mismatch: %v", err)
	}
}

func TestGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	w := openWALT(t, dir, Options{SegmentSize: 4096}, nil)
	const committers = 8
	const perCommitter = 50
	var wg sync.WaitGroup
	errs := make([]error, committers)
	for c := 0; c < committers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perCommitter; i++ {
				if err := w.Commit([]byte(fmt.Sprintf("c%d-%04d", c, i))); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("committer %d: %v", c, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Every committed record must survive reopen, in per-committer order.
	perC := make([][]string, committers)
	w2, err := OpenWAL(dir, Options{SegmentSize: 4096}, 1, func(p []byte) error {
		var c, i int
		if _, err := fmt.Sscanf(string(p), "c%d-%d", &c, &i); err != nil {
			return err
		}
		perC[c] = append(perC[c], string(p))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	for c := 0; c < committers; c++ {
		if len(perC[c]) != perCommitter {
			t.Fatalf("committer %d: %d records survived, want %d", c, len(perC[c]), perCommitter)
		}
		for i, s := range perC[c] {
			if want := fmt.Sprintf("c%d-%04d", c, i); s != want {
				t.Fatalf("committer %d record %d = %q, want %q", c, i, s, want)
			}
		}
	}
}

func TestGroupCommitInterleavedWithRotation(t *testing.T) {
	dir := t.TempDir()
	w := openWALT(t, dir, tinySegments, nil)
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				_ = w.Commit([]byte(fmt.Sprintf("rot-c%d-%02d", c, i)))
			}
		}(c)
	}
	wg.Wait()
	if w.SegmentCount() < 2 {
		t.Error("commits never crossed a segment boundary")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, dir, tinySegments); len(got) != 100 {
		t.Fatalf("replayed %d records, want 100", len(got))
	}
}

func TestStoreIncrementalCompactKeepsTail(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	st, err := Open(dir, nil, tinySegments)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		_ = st.Append([]byte(fmt.Sprintf("pre-%02d", i)))
	}
	if err := st.Compact([]byte("SNAP")); err != nil {
		t.Fatal(err)
	}
	// Appends after compaction land in the fresh tail.
	for i := 0; i < 5; i++ {
		_ = st.Append([]byte(fmt.Sprintf("post-%02d", i)))
	}
	_ = st.Sync()
	st.Close()

	var rec recorder
	st2, err := Open(dir, &rec, tinySegments)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if string(rec.snapshot) != "SNAP" {
		t.Errorf("snapshot = %q", rec.snapshot)
	}
	if len(rec.records) != 5 || string(rec.records[0]) != "post-00" {
		t.Errorf("post-compaction records = %q", rec.records)
	}
}

// TestStoreCompactCrashBeforeDelete simulates a crash after the snapshot
// rename but before the sealed segments were deleted: recovery must ignore
// (and clean up) segments the snapshot already covers.
func TestStoreCompactCrashBeforeDelete(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	st, err := Open(dir, nil, tinySegments)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		_ = st.Append([]byte(fmt.Sprintf("dup-%02d", i)))
	}
	_ = st.Sync()
	// Preserve the sealed segments, compact, then put them back.
	segsBefore, _ := listSegments(dir)
	saved := map[uint64][]byte{}
	for _, n := range segsBefore {
		raw, err := os.ReadFile(filepath.Join(dir, SegmentFile(n)))
		if err != nil {
			t.Fatal(err)
		}
		saved[n] = raw
	}
	if err := st.Compact([]byte("SNAP")); err != nil {
		t.Fatal(err)
	}
	_ = st.Append([]byte("after"))
	_ = st.Sync()
	st.Close()
	segsAfter, _ := listSegments(dir)
	restored := 0
	for n, raw := range saved {
		if _, err := os.Stat(filepath.Join(dir, SegmentFile(n))); errors.Is(err, os.ErrNotExist) {
			if err := os.WriteFile(filepath.Join(dir, SegmentFile(n)), raw, 0o644); err != nil {
				t.Fatal(err)
			}
			restored++
		}
	}
	if restored == 0 {
		t.Fatal("compaction deleted no segments; crash window not exercised")
	}

	var rec recorder
	st2, err := Open(dir, &rec, tinySegments)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if string(rec.snapshot) != "SNAP" {
		t.Errorf("snapshot = %q", rec.snapshot)
	}
	if len(rec.records) != 1 || string(rec.records[0]) != "after" {
		t.Errorf("records after simulated crash = %q (stale segments replayed?)", rec.records)
	}
	// The stale segments were cleaned up again.
	segsNow, _ := listSegments(dir)
	if len(segsNow) != len(segsAfter) {
		t.Errorf("stale segments not removed: %v vs %v", segsNow, segsAfter)
	}
}

// TestStaleSingleFileWALRejected: the pre-segmented wal.seed is no longer
// migrated. Skipping it would open the store as if its history never
// existed, so Open must refuse and name the file — whatever it contains.
func TestStaleSingleFileWALRejected(t *testing.T) {
	for name, content := range map[string][]byte{
		"records": []byte("SEEDLOG1\x03\x00\x00\x00"),
		"empty":   nil,
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			stale := filepath.Join(dir, "wal.seed")
			if err := os.WriteFile(stale, content, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := Open(dir, &recorder{}, Options{})
			if !errors.Is(err, ErrBadMagic) || !strings.Contains(err.Error(), stale) {
				t.Fatalf("open beside a stale wal.seed: %v", err)
			}
			if segs, _ := listSegments(dir); len(segs) != 0 {
				t.Errorf("refused open still created segments %v", segs)
			}
		})
	}
}

// TestRetiredSnapshotHeaderRejected: a snapshot.seed with the retired
// "SEEDSNAP" header (no firstSeg field) is corrupt to this reader, even with
// a valid length and checksum behind it.
func TestRetiredSnapshotHeaderRejected(t *testing.T) {
	dir := t.TempDir()
	payload := []byte("a payload past the size check")
	raw := []byte("SEEDSNAP")
	raw = binary.LittleEndian.AppendUint32(raw, uint32(len(payload)))
	raw = binary.LittleEndian.AppendUint32(raw, crc32.ChecksumIEEE(payload))
	raw = append(raw, payload...)
	if err := os.WriteFile(filepath.Join(dir, SnapshotFile), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, &recorder{}, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open over a SEEDSNAP-headed snapshot: %v", err)
	}
}

// TestWALFreshStoreTornFirstSegment: a crash during the very first segment
// creation (0-byte or partial-header sole segment) held no records and
// must not brick the store.
func TestWALFreshStoreTornFirstSegment(t *testing.T) {
	for _, size := range []int64{0, 7} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, SegmentFile(1)), make([]byte, size), 0o644); err != nil {
			t.Fatal(err)
		}
		w, err := OpenWAL(dir, Options{}, 1, nil)
		if err != nil {
			t.Fatalf("sole %d-byte segment: %v", size, err)
		}
		if err := w.Append([]byte("reborn")); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if got := replayAll(t, dir, Options{}); len(got) != 1 || got[0] != "reborn" {
			t.Fatalf("records after reinit = %v", got)
		}
	}
	// A torn-header FIRST segment with intact successors lost acked
	// records and must still refuse.
	dir := t.TempDir()
	fillWAL(t, dir, tinySegments, 50)
	if err := os.Truncate(filepath.Join(dir, SegmentFile(1)), 7); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWAL(dir, tinySegments, 1, nil); !errors.Is(err, ErrCorrupt) {
		t.Errorf("torn first segment with successors: %v", err)
	}
}

func TestSegmentFileNames(t *testing.T) {
	if got := SegmentFile(1); got != "wal-000001.seed" {
		t.Errorf("SegmentFile(1) = %q", got)
	}
	cases := map[string]struct {
		n  uint64
		ok bool
	}{
		"wal-000001.seed":  {1, true},
		"wal-123456.seed":  {123456, true},
		"wal-1234567.seed": {1234567, true},
		"wal-000000.seed":  {0, false},
		"wal-1.seed":       {0, false}, // non-canonical: would alias 000001
		"wal-0000001.seed": {0, false},
		"wal.seed":         {0, false},
		"snapshot.seed":    {0, false},
		"wal-xyz.seed":     {0, false},
	}
	for name, want := range cases {
		n, ok := parseSegmentName(name)
		if ok != want.ok || (ok && n != want.n) {
			t.Errorf("parseSegmentName(%q) = %d,%v want %d,%v", name, n, ok, want.n, want.ok)
		}
	}
}

// TestRotateDrainsStagedBatches: records staged by CommitAsync before
// a Rotate must land below the rotation cut — a compaction snapshot taken
// after the rotate covers their effects, so a record surviving above the
// cut would be double-applied on recovery. The flush mutex makes the drain
// synchronous even against an in-flight pipeline flush.
func TestRotateDrainsStagedBatches(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, Options{}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	const committers = 16
	var want []string
	var waits []func() error
	for i := 0; i < committers; i++ {
		rec := fmt.Sprintf("c%02d", i)
		want = append(want, rec)
		waits = append(waits, w.CommitAsync([]byte(rec)))
	}
	if _, err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	// Every staged record is below the cut: the fresh tail holds nothing.
	w.mu.Lock()
	tailSize := w.tail.size
	w.mu.Unlock()
	if tailSize != segHeaderSize {
		t.Errorf("tail holds %d bytes after rotate; staged records landed above the cut", tailSize-segHeaderSize)
	}
	for i, wait := range waits {
		if err := wait(); err != nil {
			t.Fatalf("committer %d: %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var got []string
	w2, err := OpenWAL(dir, Options{}, 1, func(p []byte) error {
		got = append(got, string(p))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %q, want %q (staging order broken)", i, got[i], want[i])
		}
	}
}
