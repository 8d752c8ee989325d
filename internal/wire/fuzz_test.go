package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"testing"

	"repro/internal/codec"
)

// writeFrame is the reference encoder Writer is held to: a little-endian
// length header, then the payload encoded into a fresh buffer.
func writeFrame(w io.Writer, v any) error {
	e := codec.NewEncoder(nil)
	if err := codeFrame(&codec.Coder{E: e}, v); err != nil {
		return err
	}
	if e.Len() > MaxFrame {
		return ErrFrameTooLarge
	}
	_, err := w.Write(append(binary.LittleEndian.AppendUint32(nil, uint32(e.Len())), e.Bytes()...))
	return err
}

// readFrame is the reference decoder Reader is held to: a fresh payload
// buffer per frame.
func readFrame(r io.Reader, v any) error {
	var header [4]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		return err
	}
	n := binary.LittleEndian.Uint32(header[:])
	if n > MaxFrame {
		return ErrFrameTooLarge
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return err
	}
	return decodeFrame(&codec.Coder{D: codec.NewDecoder(nil)}, payload, v)
}

// frameBytes encodes v as one frame for seeding the corpus.
func frameBytes(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeFrame(&buf, v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzDecodeFrame feeds arbitrary bytes through the binary frame decoder as
// a Request and as a Response (checkFrame).
func FuzzDecodeFrame(f *testing.F) {
	seedT := &testing.T{}
	f.Add(frameBytes(seedT, &Request{Op: OpHello}))
	f.Add(frameBytes(seedT, &Request{Op: OpGet, Names: []string{"Alarms", "Handler"}}))
	f.Add(frameBytes(seedT, &Request{Op: OpList, Class: "Data"}))
	f.Add(frameBytes(seedT, &Request{
		Op:    OpCheckin,
		Names: []string{"Doc"},
		Updates: []Update{
			{Kind: UpdateCreateObject, Class: "Data", Name: "New"},
			{Kind: UpdateSetValue, Path: "Doc.Text[0].Body", ValueKind: 2, Value: "v"},
			{Kind: UpdateCreateRel, Assoc: "Read", Ends: []End{{Role: "by", Path: "H"}, {Role: "from", Path: "Doc"}}},
		},
	}))
	f.Add(frameBytes(seedT, &Response{Err: "boom", Code: "conflict"}))
	// Correlated frames: hello negotiation, pipelined Seq ids, the query
	// wire form with every clause populated, and structured stats.
	f.Add(frameBytes(seedT, &Request{Op: OpHello, Proto: Proto}))
	f.Add(frameBytes(seedT, &Request{Op: OpGet, Seq: 17, Names: []string{"Doc"}}))
	f.Add(frameBytes(seedT, &Request{Op: OpQuery, Seq: 9, Query: &Query{
		Class: "Data", Specs: true, NameGlob: "Al*",
		Where:  []Where{{Path: "Text.Selector", Op: CmpEq, ValueKind: 2, Value: "x"}},
		Follow: []FollowStep{{Assoc: "Read", From: "from", To: "by"}},
		Limit:  10, Offset: 20,
	}}))
	f.Add(frameBytes(seedT, &Response{Seq: 9, Total: 42, Objects: []Object{
		{ID: 3, Class: "Data", Name: "A", Path: "A"},
		{ID: 4, Class: "Data.Text", Path: "A.Text[0]", ValueKind: 2, Value: "v"},
	}}))
	f.Add(frameBytes(seedT, &Response{Seq: 1, Proto: Proto, ClientID: "client-1"}))
	f.Add(frameBytes(seedT, &Response{Stats: "objects=1", StatsV2: &Stats{
		Objects: 1, Relationships: 2, Generation: 9, OpenTxs: 1, WALSegments: 3, WALBytes: 4096,
	}}))
	// Typed Where predicates across every value kind and operator class,
	// and plan-bearing query responses (the explain surface).
	f.Add(frameBytes(seedT, &Request{Op: OpQuery, Query: &Query{
		Class: "Thing", Specs: true,
		Where: []Where{
			{Path: "Description", Op: CmpContains, ValueKind: 2, Value: "desc"},
			{Path: "Revised", Op: CmpGe, ValueKind: 6, Value: "1986-02-05"},
			{Path: "Write.NumberOfWrites", Op: CmpLt, ValueKind: 3, Value: "-17"},
		},
	}}))
	f.Add(frameBytes(seedT, &Request{Op: OpQuery, Seq: 3, Query: &Query{
		Class: "Data",
		Where: []Where{
			{Path: "Flag", Op: CmpNe, ValueKind: 5, Value: "true"},
			{Path: "Score", Op: CmpLe, ValueKind: 4, Value: "2.25"},
			{Path: "Text.Selector", Op: CmpEq, ValueKind: 2, Value: ""},
		},
		Limit: 1,
	}}))
	f.Add(frameBytes(seedT, &Response{Seq: 3, Total: 7,
		Objects: []Object{{ID: 3, Class: "Data", Name: "A"}},
		Plan: &QueryPlan{Access: "attr-eq", Index: "Data/Text.Selector",
			Est: 7, Candidates: 7, Matched: 7, Residual: 2},
	}))
	f.Add(frameBytes(seedT, &Response{Plan: &QueryPlan{
		Access: "attr-range", Index: "Thing+/Revised",
		Est: 120, Candidates: 118, Matched: 9, Forced: true,
	}}))
	f.Add(frameBytes(seedT, &Response{Plan: &QueryPlan{Access: "scan", Est: 100000, Candidates: 100000}}))
	f.Add(frameBytes(seedT, &Response{StatsV2: &Stats{
		Objects: 5, QueryPlans: map[string]uint64{"scan": 2, "attr-eq": 40, "name": 1},
	}}))
	f.Add(frameBytes(seedT, &Response{Names: []string{"A"}, Snapshots: []Snapshot{{
		Root:    "A",
		Objects: []Object{{ID: 1, Class: "Data", Name: "A", ValueKind: 2, Value: "x"}},
		Rels:    []Relationship{{ID: 2, Assoc: "Read", Ends: []End{{Role: "by", Path: "B"}}}},
	}}}))
	// Replication stream chunks: the snapshot and records ride as blobs.
	f.Add(frameBytes(seedT, &Response{Seq: 4, Log: &LogChunk{Kind: LogSnapshot, Snapshot: []byte{1, 2, 3}, Gen: 7}}))
	f.Add(frameBytes(seedT, &Response{Seq: 4, Log: &LogChunk{Kind: LogRecords, Records: [][]byte{{9}, {8, 7}}, Seg: 2, Gen: 8}}))
	// Malformed shapes: truncated header, absurd length, bad JSON, and a
	// protocol-2 JSON hello.
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 'x'})
	f.Add(append(binary.LittleEndian.AppendUint32(nil, 4), '{', '}', '}', '{'))
	f.Add(append(binary.LittleEndian.AppendUint32(nil, 24), `{"op":"hello","proto":2}`...))
	// The every-field frames TestGoldenFrameBytes pins, after the older
	// seeds so their seed#N names stay.
	for _, v := range everyField(seedT) {
		f.Add(frameBytes(seedT, v))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Both frame types share the transport: the same bytes go through
		// each decoder.
		checkFrame[Request](t, data)
		checkFrame[Response](t, data)
	})
}

// checkFrame decodes data as one T frame. Rejection is fine; a panic is
// not, and every frame it accepts must survive a re-encode/re-decode round
// trip unchanged — the property that keeps server and client in agreement
// about what a frame means.
func checkFrame[T Request | Response](t *testing.T, data []byte) {
	var v T
	if err := readFrame(bytes.NewReader(data), &v); err != nil {
		return
	}
	var buf bytes.Buffer
	if err := writeFrame(&buf, &v); err != nil {
		t.Fatalf("re-encoding accepted %T: %v", v, err)
	}
	var again T
	if err := readFrame(bytes.NewReader(buf.Bytes()), &again); err != nil {
		t.Fatalf("re-decoding own encoding: %v", err)
	}
	if !reflect.DeepEqual(v, again) {
		t.Fatalf("round trip diverged:\n first %#v\nsecond %#v", v, again)
	}
	// The buffer-reusing Reader and Writer must agree with the reference
	// functions byte for byte: same acceptance, same decoding, same
	// encoding.
	var viaReader T
	if err := NewReader(bytes.NewReader(data)).Read(&viaReader); err != nil {
		t.Fatalf("Reader rejects what readFrame accepted: %v", err)
	}
	if !reflect.DeepEqual(v, viaReader) {
		t.Fatalf("Reader decoded differently:\n readFrame %#v\n Reader    %#v", v, viaReader)
	}
	var wbuf bytes.Buffer
	if err := NewWriter(&wbuf).Write(&v); err != nil {
		t.Fatalf("Writer rejects what writeFrame accepted: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), wbuf.Bytes()) {
		t.Fatalf("Writer encoded differently:\n writeFrame %q\n Writer     %q", buf.Bytes(), wbuf.Bytes())
	}
}
