package wire

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

// roundTrip writes req as one frame and reads it back.
func roundTrip(t *testing.T, req *Request) Request {
	t.Helper()
	var buf bytes.Buffer
	if err := NewWriter(&buf).Write(req); err != nil {
		t.Fatal(err)
	}
	var got Request
	if err := NewReader(&buf).Read(&got); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestFrameRoundTrip(t *testing.T) {
	req := Request{
		Op:    OpCheckin,
		Names: []string{"Alarms"},
		Updates: []Update{
			{Kind: UpdateSetValue, Path: "Alarms.Description", ValueKind: 1, Value: "x"},
			{Kind: UpdateCreateRel, Assoc: "Access", Ends: map[string]string{"from": "Alarms", "by": "S"}},
		},
	}
	got := roundTrip(t, &req)
	if got.Op != req.Op || len(got.Updates) != 2 || got.Updates[1].Ends["by"] != "S" {
		t.Errorf("round trip changed: %+v", got)
	}
}

func TestMultipleFramesSequential(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < 3; i++ {
		if err := w.Write(&Response{ClientID: strings.Repeat("x", i+1)}); err != nil {
			t.Fatal(err)
		}
	}
	rd := NewReader(&buf)
	for i := 0; i < 3; i++ {
		var r Response
		if err := rd.Read(&r); err != nil {
			t.Fatal(err)
		}
		if len(r.ClientID) != i+1 {
			t.Errorf("frame %d = %q", i, r.ClientID)
		}
	}
	var r Response
	if err := rd.Read(&r); err != io.EOF {
		t.Errorf("read past end: %v", err)
	}
}

// TestReaderWriterReuse drives the buffer-reusing Reader and Writer across
// frames of shrinking and growing sizes: every frame must round-trip
// exactly, interoperate with the reference encoder, and — the
// property the reuse depends on — a decoded value must stay intact after
// the next frame overwrites the shared buffer.
func TestReaderWriterReuse(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	sizes := []int{2000, 3, 500, 1, 4000}
	for i, n := range sizes {
		if i%2 == 0 {
			if err := w.Write(&Response{Stats: strings.Repeat("s", n)}); err != nil {
				t.Fatal(err)
			}
		} else if err := writeFrame(&buf, &Response{Stats: strings.Repeat("s", n)}); err != nil {
			t.Fatal(err)
		}
	}
	rd := NewReader(&buf)
	var prev *Response
	prevSize := 0
	for i, n := range sizes {
		r := &Response{}
		if err := rd.Read(r); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if len(r.Stats) != n {
			t.Fatalf("frame %d: got %d bytes, want %d", i, len(r.Stats), n)
		}
		if prev != nil && len(prev.Stats) != prevSize {
			t.Fatalf("frame %d corrupted the previous frame's decoded value", i)
		}
		prev, prevSize = r, n
	}
	if err := rd.Read(&Response{}); err != io.EOF {
		t.Errorf("read past end: %v", err)
	}
}

// TestQueryFrame round-trips the v2 query request and its response.
func TestQueryFrame(t *testing.T) {
	req := Request{Op: OpQuery, Seq: 5, Query: &Query{
		Class: "Data", Specs: true, NameGlob: "A*",
		Where:  []Where{{Path: "Text.Selector", Op: CmpContains, ValueKind: 2, Value: "x"}},
		Follow: []FollowStep{{Assoc: "Access", From: "from", To: "by"}},
		Limit:  3, Offset: 6,
	}}
	got := roundTrip(t, &req)
	if got.Seq != 5 || got.Query == nil || got.Query.Where[0].Op != CmpContains ||
		got.Query.Follow[0].Assoc != "Access" || got.Query.Offset != 6 {
		t.Errorf("round trip changed: %+v", got)
	}
}

func TestFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	big := Response{Stats: strings.Repeat("a", MaxFrame)}
	if err := NewWriter(&buf).Write(&big); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversize write: %v", err)
	}
	// Oversize length header on read.
	buf.Reset()
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	var r Response
	if err := NewReader(&buf).Read(&r); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversize read: %v", err)
	}
}

func TestBadJSON(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{3, 0, 0, 0})
	buf.WriteString("{{{")
	var r Response
	if err := NewReader(&buf).Read(&r); !errors.Is(err, ErrBadFrame) {
		t.Errorf("bad json: %v", err)
	}
}

func TestTruncatedFrame(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{10, 0, 0, 0})
	buf.WriteString("abc") // claims 10 bytes, has 3
	var r Response
	if err := NewReader(&buf).Read(&r); err == nil {
		t.Error("truncated frame decoded")
	}
}
