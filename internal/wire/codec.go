package wire

import (
	"errors"
	"fmt"
	"maps"
	"slices"

	"repro/internal/codec"
)

// A payload starts with a tag naming its frame type, so a Response is never
// decoded as a Request, and a JSON payload of the retired protocol 2 (which
// starts with '{') is refused at its first byte.
const (
	tagRequest  byte = 'Q'
	tagResponse byte = 'R'
)

var errTrailing = errors.New("trailing bytes after the frame's value")

// encodeFrame appends v's tag and fields.
func encodeFrame(e *codec.Encoder, v any) error {
	switch v := v.(type) {
	case *Request:
		e.Byte(tagRequest)
		v.encode(e)
	case *Response:
		e.Byte(tagResponse)
		v.encode(e)
	default:
		return fmt.Errorf("wire: cannot encode %T", v)
	}
	return nil
}

// decodeFrame decodes one whole payload into v, which it overwrites. It
// keeps the codec's contract: the first failure is kept, every count is
// bounded by the bytes left, every decoded string and blob is a copy, and
// bytes after the value are refused.
func decodeFrame(payload []byte, v any) error {
	d := codec.NewDecoder(payload)
	switch v := v.(type) {
	case *Request:
		*v = Request{}
		wantTag(d, tagRequest)
		v.decode(d)
	case *Response:
		*v = Response{}
		wantTag(d, tagResponse)
		v.decode(d)
	default:
		return fmt.Errorf("wire: cannot decode into %T", v)
	}
	if d.Err() == nil && d.Remaining() != 0 {
		d.Fail(fmt.Errorf("%w: %d", errTrailing, d.Remaining()))
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	return nil
}

func wantTag(d *codec.Decoder, want byte) {
	if got := d.Byte(); got != want {
		d.Fail(fmt.Errorf("frame tag %#x, want %#x", got, want))
	}
}

// putSlice appends a count, then each element.
func putSlice[T any](e *codec.Encoder, s []T, put func(*T, *codec.Encoder)) {
	e.Int(len(s))
	for i := range s {
		put(&s[i], e)
	}
}

// getSlice reads what putSlice wrote; an empty slice reads as nil. Every
// element encodes to at least minSize bytes, so a count the bytes left
// cannot hold is refused before it sizes an allocation.
func getSlice[T any](d *codec.Decoder, minSize int, get func(*T, *codec.Decoder)) []T {
	n := d.Count()
	if n > d.Remaining()/minSize {
		d.Fail(fmt.Errorf("%w: %d elements of at least %d bytes with %d left", codec.ErrBadCount, n, minSize, d.Remaining()))
		return nil
	}
	if n == 0 {
		return nil
	}
	s := make([]T, n)
	for i := range s {
		get(&s[i], d)
	}
	return s
}

// putPtr appends a presence flag, then the value if there is one.
func putPtr[T any](e *codec.Encoder, p *T, put func(*T, *codec.Encoder)) {
	e.Bool(p != nil)
	if p != nil {
		put(p, e)
	}
}

// getPtr reads what putPtr wrote.
func getPtr[T any](d *codec.Decoder, get func(*T, *codec.Decoder)) *T {
	if !d.Bool() {
		return nil
	}
	p := new(T)
	get(p, d)
	return p
}

func putString(s *string, e *codec.Encoder) { e.String(*s) }
func getString(s *string, d *codec.Decoder) { *s = d.String() }
func putBlob(b *[]byte, e *codec.Encoder)   { e.Blob(*b) }
func getBlob(b *[]byte, d *codec.Decoder)   { *b = blob(d) }

// blob reads a Blob; an empty one reads as nil, which a LogSnapshot chunk
// uses for "the primary has no snapshot".
func blob(d *codec.Decoder) []byte {
	if b := d.Blob(); len(b) > 0 {
		return b
	}
	return nil
}

// Each type writes its strings as one codec.Strings group, so decoding a
// value costs one string allocation, not one per field.

func (r *Request) encode(e *codec.Encoder) {
	e.Strings(string(r.Op), r.Class, r.Note)
	e.Uint64(r.Seq)
	e.Int(r.Proto)
	putSlice(e, r.Names, putString)
	putSlice(e, r.Updates, (*Update).encode)
	putPtr(e, r.Query, (*Query).encode)
}

func (r *Request) decode(d *codec.Decoder) {
	d.Strings((*string)(&r.Op), &r.Class, &r.Note)
	r.Seq, r.Proto = d.Uint64(), d.Int()
	r.Names = getSlice(d, 1, getString)
	r.Updates = getSlice(d, 9, (*Update).decode)
	r.Query = getPtr(d, (*Query).decode)
}

func (r *Response) encode(e *codec.Encoder) {
	e.Strings(r.Err, r.Code, r.ClientID, r.Version, r.Stats)
	e.Uint64(r.Seq)
	e.Int(r.Proto)
	putSlice(e, r.Names, putString)
	putSlice(e, r.Snapshots, (*Snapshot).encode)
	putSlice(e, r.Versions, (*VersionInfo).encode)
	putSlice(e, r.Findings, (*Finding).encode)
	putPtr(e, r.StatsV2, (*Stats).encode)
	putSlice(e, r.Objects, (*Object).encode)
	e.Int(r.Total)
	putPtr(e, r.Plan, (*QueryPlan).encode)
	putPtr(e, r.Log, (*LogChunk).encode)
}

func (r *Response) decode(d *codec.Decoder) {
	d.Strings(&r.Err, &r.Code, &r.ClientID, &r.Version, &r.Stats)
	r.Seq, r.Proto = d.Uint64(), d.Int()
	r.Names = getSlice(d, 1, getString)
	r.Snapshots = getSlice(d, 3, (*Snapshot).decode)
	r.Versions = getSlice(d, 4, (*VersionInfo).decode)
	r.Findings = getSlice(d, 3, (*Finding).decode)
	r.StatsV2 = getPtr(d, (*Stats).decode)
	r.Objects = getSlice(d, 6, (*Object).decode)
	r.Total = d.Int()
	r.Plan = getPtr(d, (*QueryPlan).decode)
	r.Log = getPtr(d, (*LogChunk).decode)
}

func (o *Object) encode(e *codec.Encoder) {
	e.Strings(o.Class, o.Name, o.Path, o.Value)
	e.Uint64(o.ID)
	e.Byte(o.ValueKind)
}

func (o *Object) decode(d *codec.Decoder) {
	d.Strings(&o.Class, &o.Name, &o.Path, &o.Value)
	o.ID, o.ValueKind = d.Uint64(), d.Byte()
}

func (x *End) encode(e *codec.Encoder) { e.Strings(x.Role, x.Path) }
func (x *End) decode(d *codec.Decoder) { d.Strings(&x.Role, &x.Path) }

func (r *Relationship) encode(e *codec.Encoder) {
	e.String(r.Assoc)
	e.Uint64(r.ID)
	putSlice(e, r.Ends, (*End).encode)
}

func (r *Relationship) decode(d *codec.Decoder) {
	r.Assoc, r.ID = d.String(), d.Uint64()
	r.Ends = getSlice(d, 2, (*End).decode)
}

func (s *Snapshot) encode(e *codec.Encoder) {
	e.String(s.Root)
	putSlice(e, s.Objects, (*Object).encode)
	putSlice(e, s.Rels, (*Relationship).encode)
}

func (s *Snapshot) decode(d *codec.Decoder) {
	s.Root = d.String()
	s.Objects = getSlice(d, 6, (*Object).decode)
	s.Rels = getSlice(d, 3, (*Relationship).decode)
}

func (u *Update) encode(e *codec.Encoder) {
	e.Strings(u.Kind, u.Class, u.Name, u.Path, u.Role, u.Assoc, u.Value)
	putSlice(e, u.Ends, (*End).encode)
	e.Byte(u.ValueKind)
}

func (u *Update) decode(d *codec.Decoder) {
	d.Strings(&u.Kind, &u.Class, &u.Name, &u.Path, &u.Role, &u.Assoc, &u.Value)
	u.Ends = getSlice(d, 2, (*End).decode)
	u.ValueKind = d.Byte()
}

func (w *Where) encode(e *codec.Encoder) {
	e.Strings(w.Path, w.Op, w.Value)
	e.Byte(w.ValueKind)
}

func (w *Where) decode(d *codec.Decoder) {
	d.Strings(&w.Path, &w.Op, &w.Value)
	w.ValueKind = d.Byte()
}

func (f *FollowStep) encode(e *codec.Encoder) { e.Strings(f.Assoc, f.From, f.To) }
func (f *FollowStep) decode(d *codec.Decoder) { d.Strings(&f.Assoc, &f.From, &f.To) }

func (q *Query) encode(e *codec.Encoder) {
	e.Strings(q.Class, q.NameGlob)
	e.Bool(q.Specs)
	putSlice(e, q.Where, (*Where).encode)
	putSlice(e, q.Follow, (*FollowStep).encode)
	e.Int(q.Limit)
	e.Int(q.Offset)
}

func (q *Query) decode(d *codec.Decoder) {
	d.Strings(&q.Class, &q.NameGlob)
	q.Specs = d.Bool()
	q.Where = getSlice(d, 4, (*Where).decode)
	q.Follow = getSlice(d, 3, (*FollowStep).decode)
	q.Limit, q.Offset = d.Int(), d.Int()
}

func (p *QueryPlan) encode(e *codec.Encoder) {
	e.Strings(p.Access, p.Index)
	e.Int(p.Est)
	e.Int(p.Candidates)
	e.Int(p.Matched)
	e.Int(p.Residual)
	e.Bool(p.Forced)
}

func (p *QueryPlan) decode(d *codec.Decoder) {
	d.Strings(&p.Access, &p.Index)
	p.Est, p.Candidates, p.Matched, p.Residual = d.Int(), d.Int(), d.Int(), d.Int()
	p.Forced = d.Bool()
}
func (s *Stats) encode(e *codec.Encoder) {
	for _, n := range []int{s.Objects, s.Relationships, s.Patterns, s.Deleted, s.Versions,
		s.SchemaVersion, s.OpenTxs, s.WALSegments, s.Connections, s.Locks, s.InFlight, s.Queued} {
		e.Int(n)
	}
	e.Int64(s.WALBytes)
	for _, n := range []uint64{s.Generation, s.Rejected, s.FollowerGen, s.FollowerLag} {
		e.Uint64(n)
	}
	e.Bool(s.Draining)
	e.Bool(s.Follower)
	// Sorted, so one Stats always encodes to the same bytes.
	keys := slices.Sorted(maps.Keys(s.QueryPlans))
	e.Int(len(keys))
	for _, k := range keys {
		e.String(k)
		e.Uint64(s.QueryPlans[k])
	}
}

func (s *Stats) decode(d *codec.Decoder) {
	for _, n := range []*int{&s.Objects, &s.Relationships, &s.Patterns, &s.Deleted, &s.Versions,
		&s.SchemaVersion, &s.OpenTxs, &s.WALSegments, &s.Connections, &s.Locks, &s.InFlight, &s.Queued} {
		*n = d.Int()
	}
	s.WALBytes = d.Int64()
	for _, n := range []*uint64{&s.Generation, &s.Rejected, &s.FollowerGen, &s.FollowerLag} {
		*n = d.Uint64()
	}
	s.Draining, s.Follower = d.Bool(), d.Bool()
	n := d.Count()
	if n > d.Remaining()/2 {
		d.Fail(fmt.Errorf("%w: %d query plans with %d bytes left", codec.ErrBadCount, n, d.Remaining()))
		return
	}
	if n > 0 {
		s.QueryPlans = make(map[string]uint64, n)
	}
	for range n {
		k := d.String()
		s.QueryPlans[k] = d.Uint64()
	}
}

func (c *LogChunk) encode(e *codec.Encoder) {
	e.String(c.Kind)
	e.Blob(c.Snapshot)
	putSlice(e, c.Records, putBlob)
	e.Uint64(c.Seg)
	e.Uint64(c.Gen)
}

func (c *LogChunk) decode(d *codec.Decoder) {
	c.Kind, c.Snapshot = d.String(), blob(d)
	c.Records = getSlice(d, 1, getBlob)
	c.Seg, c.Gen = d.Uint64(), d.Uint64()
}

func (v *VersionInfo) encode(e *codec.Encoder) {
	e.Strings(v.Num, v.Note)
	e.Int(v.DeltaSize)
	e.Int(v.SchemaVer)
}

func (v *VersionInfo) decode(d *codec.Decoder) {
	d.Strings(&v.Num, &v.Note)
	v.DeltaSize, v.SchemaVer = d.Int(), d.Int()
}

func (f *Finding) encode(e *codec.Encoder) {
	e.Strings(f.Rule, f.Detail)
	e.Uint64(f.Item)
}

func (f *Finding) decode(d *codec.Decoder) {
	d.Strings(&f.Rule, &f.Detail)
	f.Item = d.Uint64()
}
