package wire

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
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

// everyField returns a Request and a Response with every exported field
// filled, in that order, sharing one fill counter.
func everyField(t *testing.T) []any {
	n := 0
	vs := []any{&Request{}, &Response{}}
	for _, v := range vs {
		fill(t, reflect.ValueOf(v).Elem(), &n)
	}
	return vs
}

// TestFrameRoundTripEveryField fills every exported field of a Request and
// a Response, recursively, and requires both to come back equal: a field
// added to a wire type but not to its codec fails here.
func TestFrameRoundTripEveryField(t *testing.T) {
	for _, v := range everyField(t) {
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

// TestGoldenFrameBytes pins the sha256 of the Writer's bytes for the
// every-field Request frame followed by the every-field Response frame. A
// round trip cannot see a codec that writes two fields in another order; a
// moved wire byte fails here.
func TestGoldenFrameBytes(t *testing.T) {
	const want = "9cb463f8c8cbf3eca69e4dbaad09018010c0afc03d27a4e8c9136a4bb5199a5f"
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, v := range everyField(t) {
		if err := w.Write(v); err != nil {
			t.Fatal(err)
		}
	}
	if sum := sha256.Sum256(buf.Bytes()); hex.EncodeToString(sum[:]) != want {
		t.Errorf("frame bytes sha256 %x, want %s", sum, want)
	}
}

// getResponse is the response to a get of a root holding
// Text[0].Body.Keywords[0..48] at depth 4: 54 objects and three
// relationships, the shape the server's TestSnapshotDecodesEachObjectOnce
// renders.
func getResponse() *Response {
	obj := func(class, path string, kind uint8, value string) Object {
		return Object{ID: uint64(len(path)), Class: "Data" + class, Path: "Deep" + path, ValueKind: kind, Value: value}
	}
	objs := []Object{
		{ID: 1, Class: "Data", Name: "Deep", Path: "Deep"},
		obj(".Description", ".Description", 1, "d"),
		obj(".Text", ".Text[0]", 0, ""),
		obj(".Text.Body", ".Text[0].Body", 0, ""),
	}
	for k := range 49 {
		objs = append(objs, obj(".Text.Body.Keywords", fmt.Sprintf(".Text[0].Body.Keywords[%d]", k), 1, fmt.Sprint("kw", k)))
	}
	objs = append(objs, obj(".Text.Selector", ".Text[0].Selector", 1, "sel"))
	rel := func(id uint64, assoc string, ends ...End) Relationship {
		return Relationship{ID: id, Assoc: assoc, Ends: ends}
	}
	return &Response{Seq: 7, Snapshots: []Snapshot{{Root: "Deep", Objects: objs, Rels: []Relationship{
		rel(60, "Access", End{"by", "A1"}, End{"from", "Deep"}),
		rel(61, "Access", End{"by", "A2"}, End{"from", "Deep"}),
		rel(62, "Cites", End{"from", "Deep"}, End{"to", "Deep.Text[0].Body.Keywords[7]"}),
	}}}}
}

// TestFrameAllocs guards the frame path's allocations on a get response:
// Writer.Encode allocates nothing, and Reader.Read allocates one slice per
// slice field and one string group per value (70), no more than the 71 it
// did when each frame built its own decoder.
func TestFrameAllocs(t *testing.T) {
	const maxRead = 71
	resp := getResponse()
	w := NewWriter(io.Discard)
	frame, err := w.Encode(resp)
	if err != nil {
		t.Fatal(err)
	}
	frame = bytes.Clone(frame)
	if n := testing.AllocsPerRun(100, func() { w.Encode(resp) }); n != 0 {
		t.Errorf("Writer.Encode: %v allocs per frame, want 0", n)
	}
	src := bytes.NewReader(frame)
	rd, got := NewReader(src), new(Response)
	if n := testing.AllocsPerRun(100, func() {
		src.Reset(frame)
		if err := rd.Read(got); err != nil {
			t.Fatal(err)
		}
	}); n > maxRead {
		t.Errorf("Reader.Read: %v allocs per frame, want at most %d", n, maxRead)
	}
	if !reflect.DeepEqual(got, resp) {
		t.Errorf("get response changed in a round trip")
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
