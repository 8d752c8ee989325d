package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
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
			{Kind: UpdateCreateRel, Assoc: "Access", Ends: []End{{Role: "by", Path: "S"}, {Role: "from", Path: "Alarms"}}},
		},
	}
	if got := roundTrip(t, &req); !reflect.DeepEqual(got, req) {
		t.Errorf("round trip changed: %+v", got)
	}
}

// fill sets every exported field of v, recursively, to a non-zero value
// unique to the field (counted by n): slices and maps get two elements,
// pointers a filled value.
func fill(t *testing.T, v reflect.Value, n *int) {
	*n++
	switch v.Kind() {
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.Uint8, reflect.Uint64:
		v.SetUint(uint64(*n))
	case reflect.Pointer:
		p := reflect.New(v.Type().Elem())
		fill(t, p.Elem(), n)
		v.Set(p)
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := range 2 {
			fill(t, s.Index(i), n)
		}
		v.Set(s)
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		for range 2 {
			k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			fill(t, k, n)
			fill(t, e, n)
			m.SetMapIndex(k, e)
		}
		v.Set(m)
	case reflect.Struct:
		for i := range v.NumField() {
			if v.Type().Field(i).IsExported() {
				fill(t, v.Field(i), n)
			}
		}
	default:
		t.Fatalf("fill: no value for a %s field", v.Type())
	}
}

// TestFrameRoundTripEveryField fills every exported field of a Request and
// a Response, recursively, and requires both to come back equal: a field
// added to a wire type but not to its codec fails here.
func TestFrameRoundTripEveryField(t *testing.T) {
	n := 0
	for _, v := range []any{&Request{}, &Response{}} {
		fill(t, reflect.ValueOf(v).Elem(), &n)
		var buf bytes.Buffer
		if err := NewWriter(&buf).Write(v); err != nil {
			t.Fatal(err)
		}
		got := reflect.New(reflect.TypeOf(v).Elem()).Interface()
		if err := NewReader(&buf).Read(got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, v) {
			t.Errorf("round trip changed a field:\n sent %+v\n got  %+v", v, got)
		}
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
// exactly, interoperate with the reference encoder, and — the property the
// reuse depends on — a decoded value must stay intact after the next frame
// overwrites the shared buffer. Each frame repeats its own byte, so a
// string aliasing the buffer shows up as the next frame's bytes.
func TestReaderWriterReuse(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	sizes := []int{2000, 3, 500, 1, 4000}
	content := func(i int) string { return strings.Repeat(string(rune('a'+i)), sizes[i]) }
	for i := range sizes {
		if i%2 == 0 {
			if err := w.Write(&Response{Stats: content(i)}); err != nil {
				t.Fatal(err)
			}
		} else if err := writeFrame(&buf, &Response{Stats: content(i)}); err != nil {
			t.Fatal(err)
		}
	}
	rd := NewReader(&buf)
	var prev *Response
	for i := range sizes {
		r := &Response{}
		if err := rd.Read(r); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if r.Stats != content(i) {
			t.Fatalf("frame %d: got %.10q (%d bytes), want %d bytes of %q", i, r.Stats, len(r.Stats), sizes[i], 'a'+i)
		}
		if prev != nil && prev.Stats != content(i-1) {
			t.Fatalf("frame %d changed the previous frame's decoded value to %.10q", i, prev.Stats)
		}
		prev = r
	}
	if err := rd.Read(&Response{}); err != io.EOF {
		t.Errorf("read past end: %v", err)
	}
}

// TestQueryFrame round-trips the query request.
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

// TestBadJSON: a JSON payload — malformed, or a protocol-2 hello — is not
// a frame of this protocol, for either frame type.
func TestBadJSON(t *testing.T) {
	for _, payload := range []string{"{{{", `{"op":"hello","proto":2}`} {
		for _, v := range []any{&Request{}, &Response{}} {
			var buf bytes.Buffer
			buf.Write(binary.LittleEndian.AppendUint32(nil, uint32(len(payload))))
			buf.WriteString(payload)
			if err := NewReader(&buf).Read(v); !errors.Is(err, ErrBadFrame) {
				t.Errorf("%s as %T: %v, want ErrBadFrame", payload, v, err)
			}
		}
	}
}

// TestFrameTypeAndTrailingBytes: a frame tagged as the other type is
// refused even when its fields would parse, and so is a payload with bytes
// after its value.
func TestFrameTypeAndTrailingBytes(t *testing.T) {
	var buf bytes.Buffer
	if err := NewWriter(&buf).Write(&Request{Op: OpGet, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	retagged := append([]byte(nil), frame...)
	retagged[4] = tagResponse
	if err := NewReader(bytes.NewReader(retagged)).Read(&Request{}); !errors.Is(err, ErrBadFrame) {
		t.Errorf("request fields under a response tag: %v", err)
	}
	long := binary.LittleEndian.AppendUint32(nil, uint32(len(frame)-4+1))
	long = append(append(long, frame[4:]...), 0)
	if err := NewReader(bytes.NewReader(long)).Read(&Request{}); !errors.Is(err, ErrBadFrame) {
		t.Errorf("frame with a trailing byte: %v", err)
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
