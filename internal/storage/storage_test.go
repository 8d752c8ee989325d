package storage

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// openWALT opens a WAL in dir, failing the test on error.
func openWALT(t *testing.T, dir string, opts Options, fn func([]byte) error) *WAL {
	t.Helper()
	w, err := OpenWAL(dir, opts, 1, fn)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestWALAppendReplay(t *testing.T) {
	dir := t.TempDir()
	w := openWALT(t, dir, Options{}, nil)
	want := [][]byte{[]byte("one"), []byte("two"), {}, []byte("four")}
	for _, p := range want {
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var got [][]byte
	w2 := openWALT(t, dir, Options{}, func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	defer w2.Close()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
	// Appending after recovery works.
	if err := w2.Append([]byte("five")); err != nil {
		t.Fatal(err)
	}
	if err := w2.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	w := openWALT(t, dir, Options{}, nil)
	_ = w.Append([]byte("good-1"))
	_ = w.Append([]byte("good-2"))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: garbage that looks like a partial record.
	path := filepath.Join(dir, SegmentFile(1))
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{9, 0, 0, 0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var got []string
	w2 := openWALT(t, dir, Options{}, func(p []byte) error {
		got = append(got, string(p))
		return nil
	})
	if len(got) != 2 || got[0] != "good-1" || got[1] != "good-2" {
		t.Fatalf("replay after torn tail = %v", got)
	}
	// The torn bytes were truncated; new appends replay cleanly.
	_ = w2.Append([]byte("good-3"))
	w2.Close()
	got = nil
	w3 := openWALT(t, dir, Options{}, func(p []byte) error {
		got = append(got, string(p))
		return nil
	})
	defer w3.Close()
	if len(got) != 3 || got[2] != "good-3" {
		t.Fatalf("replay after re-append = %v", got)
	}
}

func TestWALCorruptRecordStopsReplayInTail(t *testing.T) {
	dir := t.TempDir()
	w := openWALT(t, dir, Options{}, nil)
	_ = w.Append([]byte("aaaa"))
	_ = w.Append([]byte("bbbb"))
	w.Close()
	// Flip a payload byte of the second (last) record: indistinguishable
	// from a torn write, so the tail is truncated, not rejected.
	path := filepath.Join(dir, SegmentFile(1))
	raw, _ := os.ReadFile(path)
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var got []string
	w2 := openWALT(t, dir, Options{}, func(p []byte) error {
		got = append(got, string(p))
		return nil
	})
	defer w2.Close()
	if len(got) != 1 || got[0] != "aaaa" {
		t.Fatalf("replay with corrupt tail = %v", got)
	}
}

func TestWALBadMagic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, SegmentFile(1))
	if err := os.WriteFile(path, []byte("NOTSEED!12345678"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWAL(dir, Options{}, 1, nil); !errors.Is(err, ErrBadMagic) {
		t.Errorf("OpenWAL on foreign file: %v", err)
	}
}

func TestWALClosed(t *testing.T) {
	w := openWALT(t, t.TempDir(), Options{}, nil)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("x")); !errors.Is(err, ErrLogClosed) {
		t.Errorf("Append after close: %v", err)
	}
	if err := w.Sync(); !errors.Is(err, ErrLogClosed) {
		t.Errorf("Sync after close: %v", err)
	}
	if err := w.Commit([]byte("x")); !errors.Is(err, ErrLogClosed) {
		t.Errorf("Commit after close: %v", err)
	}
	if _, err := w.Rotate(); !errors.Is(err, ErrLogClosed) {
		t.Errorf("Rotate after close: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

// recorder is a RecoveryHandler for tests.
type recorder struct {
	snapshot []byte
	records  [][]byte
}

func (r *recorder) LoadSnapshot(p []byte) error {
	r.snapshot = append([]byte(nil), p...)
	return nil
}

func (r *recorder) ApplyRecord(p []byte) error {
	r.records = append(r.records, append([]byte(nil), p...))
	return nil
}

func TestStoreLifecycle(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(filepath.Join(dir, "db"), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_ = st.Append([]byte("r1"))
	_ = st.Append([]byte("r2"))
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	st.Close()

	var rec recorder
	st2, err := Open(filepath.Join(dir, "db"), &rec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.snapshot != nil {
		t.Error("unexpected snapshot on fresh store")
	}
	if len(rec.records) != 2 || string(rec.records[1]) != "r2" {
		t.Fatalf("records = %q", rec.records)
	}

	// Compact: snapshot covers the sealed segments; the log replays only
	// what came after.
	if err := st2.Compact([]byte("STATE")); err != nil {
		t.Fatal(err)
	}
	_ = st2.Append([]byte("r3"))
	_ = st2.Sync()
	st2.Close()

	var rec2 recorder
	st3, err := Open(filepath.Join(dir, "db"), &rec2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if string(rec2.snapshot) != "STATE" {
		t.Errorf("snapshot = %q", rec2.snapshot)
	}
	if len(rec2.records) != 1 || string(rec2.records[0]) != "r3" {
		t.Errorf("post-compaction records = %q", rec2.records)
	}
}

func TestStoreCorruptSnapshot(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	st, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Compact([]byte("GOOD")); err != nil {
		t.Fatal(err)
	}
	st.Close()
	raw, _ := os.ReadFile(filepath.Join(dir, SnapshotFile))
	raw[len(raw)-1] ^= 0xFF
	_ = os.WriteFile(filepath.Join(dir, SnapshotFile), raw, 0o644)
	if _, err := Open(dir, &recorder{}, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("corrupt snapshot: %v", err)
	}
}

func TestAppendOversizeRecord(t *testing.T) {
	w := openWALT(t, t.TempDir(), Options{}, nil)
	defer w.Close()
	if err := w.Append(make([]byte, MaxRecord+1)); !errors.Is(err, ErrOversize) {
		t.Errorf("oversize record: %v", err)
	}
	if err := w.Commit(make([]byte, MaxRecord+1)); !errors.Is(err, ErrOversize) {
		t.Errorf("oversize commit: %v", err)
	}
}

func TestStoreDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	st, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Dir() != dir {
		t.Errorf("Dir = %q", st.Dir())
	}
}

func TestStoreLogSizeGrowsAndResets(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	st, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	before := st.LogSize()
	_ = st.Append(make([]byte, 100))
	if st.LogSize() <= before {
		t.Error("LogSize did not grow")
	}
	if err := st.Compact(nil); err != nil {
		t.Fatal(err)
	}
	if st.LogSize() != before {
		t.Errorf("LogSize after compaction = %d, want %d", st.LogSize(), before)
	}
	if st.Segments() != 1 {
		t.Errorf("Segments after compaction = %d, want 1", st.Segments())
	}
}
