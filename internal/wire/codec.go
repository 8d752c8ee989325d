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

// codeFrame codes v's tag and fields. Decoding overwrites every field of v.
func codeFrame(c *codec.Coder, v any) error {
	switch v := v.(type) {
	case *Request:
		codeTag(c, tagRequest)
		v.code(c)
	case *Response:
		codeTag(c, tagResponse)
		v.code(c)
	default:
		return fmt.Errorf("wire: cannot code %T", v)
	}
	return nil
}

// decodeFrame decodes one whole payload into v through c, whose Decoder it
// resets. Beyond the Coder's contract it refuses bytes after the value, and
// it reports every failure as ErrBadFrame.
func decodeFrame(c *codec.Coder, payload []byte, v any) error {
	d := c.D
	d.Reset(payload)
	defer d.Reset(nil)
	if err := codeFrame(c, v); err != nil {
		return err
	}
	if d.Err() == nil && d.Remaining() != 0 {
		d.Fail(fmt.Errorf("%w: %d", errTrailing, d.Remaining()))
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	return nil
}

// codeTag codes a frame's tag; decoding another tag fails.
func codeTag(c *codec.Coder, want byte) {
	got := want
	if c.Byte(&got); got != want {
		c.D.Fail(fmt.Errorf("frame tag %#x, want %#x", got, want))
	}
}

// Element coders for Slice over strings and byte slices.
func codeString(s *string, c *codec.Coder) { c.String(s) }
func codeBlob(b *[]byte, c *codec.Coder)   { c.Blob(b) }

// Each type codes its strings as one Strings group, so decoding a value
// costs one string allocation, not one per field. A Slice's minSize is the
// fewest bytes its element encodes to.

func (r *Request) code(c *codec.Coder) {
	c.Strings((*string)(&r.Op), &r.Class, &r.Note)
	c.Uint64(&r.Seq)
	c.Int(&r.Proto)
	codec.Slice(c, &r.Names, 1, codeString)
	codec.Slice(c, &r.Updates, 9, (*Update).code)
	codec.Ptr(c, &r.Query, (*Query).code)
}

func (r *Response) code(c *codec.Coder) {
	c.Strings(&r.Err, &r.Code, &r.ClientID, &r.Version, &r.Stats)
	c.Uint64(&r.Seq)
	c.Int(&r.Proto)
	codec.Slice(c, &r.Names, 1, codeString)
	codec.Slice(c, &r.Snapshots, 3, (*Snapshot).code)
	codec.Slice(c, &r.Versions, 4, (*VersionInfo).code)
	codec.Slice(c, &r.Findings, 3, (*Finding).code)
	codec.Ptr(c, &r.StatsV2, (*Stats).code)
	codec.Slice(c, &r.Objects, 6, (*Object).code)
	c.Int(&r.Total)
	codec.Ptr(c, &r.Plan, (*QueryPlan).code)
	codec.Ptr(c, &r.Log, (*LogChunk).code)
}

func (o *Object) code(c *codec.Coder) {
	c.Strings(&o.Class, &o.Name, &o.Path, &o.Value)
	c.Uint64(&o.ID)
	c.Byte(&o.ValueKind)
}

func (x *End) code(c *codec.Coder) { c.Strings(&x.Role, &x.Path) }

func (r *Relationship) code(c *codec.Coder) {
	c.String(&r.Assoc)
	c.Uint64(&r.ID)
	codec.Slice(c, &r.Ends, 2, (*End).code)
}

func (s *Snapshot) code(c *codec.Coder) {
	c.String(&s.Root)
	codec.Slice(c, &s.Objects, 6, (*Object).code)
	codec.Slice(c, &s.Rels, 3, (*Relationship).code)
}

func (u *Update) code(c *codec.Coder) {
	c.Strings(&u.Kind, &u.Class, &u.Name, &u.Path, &u.Role, &u.Assoc, &u.Value)
	codec.Slice(c, &u.Ends, 2, (*End).code)
	c.Byte(&u.ValueKind)
}

func (w *Where) code(c *codec.Coder) {
	c.Strings(&w.Path, &w.Op, &w.Value)
	c.Byte(&w.ValueKind)
}

func (f *FollowStep) code(c *codec.Coder) { c.Strings(&f.Assoc, &f.From, &f.To) }

func (q *Query) code(c *codec.Coder) {
	c.Strings(&q.Class, &q.NameGlob)
	c.Bool(&q.Specs)
	codec.Slice(c, &q.Where, 4, (*Where).code)
	codec.Slice(c, &q.Follow, 3, (*FollowStep).code)
	c.Int(&q.Limit)
	c.Int(&q.Offset)
}

func (p *QueryPlan) code(c *codec.Coder) {
	c.Strings(&p.Access, &p.Index)
	for _, n := range []*int{&p.Est, &p.Candidates, &p.Matched, &p.Residual} {
		c.Int(n)
	}
	c.Bool(&p.Forced)
}

// planCount is one entry of Stats.QueryPlans on the wire.
type planCount struct {
	access string
	n      uint64
}

func (p *planCount) code(c *codec.Coder) {
	c.String(&p.access)
	c.Uint64(&p.n)
}

func (s *Stats) code(c *codec.Coder) {
	for _, n := range []*int{&s.Objects, &s.Relationships, &s.Patterns, &s.Deleted, &s.Versions,
		&s.SchemaVersion, &s.OpenTxs, &s.WALSegments, &s.Connections, &s.Locks, &s.InFlight, &s.Queued} {
		c.Int(n)
	}
	c.Int64(&s.WALBytes)
	for _, n := range []*uint64{&s.Generation, &s.Rejected, &s.FollowerGen, &s.FollowerLag} {
		c.Uint64(n)
	}
	c.Bool(&s.Draining)
	c.Bool(&s.Follower)
	// The map travels as its entries, sorted, so one Stats always encodes
	// to the same bytes. Ptr decodes into a new Stats, whose map is nil.
	var plans []planCount
	for _, k := range slices.Sorted(maps.Keys(s.QueryPlans)) {
		plans = append(plans, planCount{k, s.QueryPlans[k]})
	}
	if codec.Slice(c, &plans, 2, (*planCount).code); c.D != nil && plans != nil {
		s.QueryPlans = make(map[string]uint64, len(plans))
		for _, p := range plans {
			s.QueryPlans[p.access] = p.n
		}
	}
}

func (l *LogChunk) code(c *codec.Coder) {
	c.String(&l.Kind)
	c.Blob(&l.Snapshot)
	codec.Slice(c, &l.Records, 1, codeBlob)
	c.Uint64(&l.Seg)
	c.Uint64(&l.Gen)
}

func (v *VersionInfo) code(c *codec.Coder) {
	c.Strings(&v.Num, &v.Note)
	c.Int(&v.DeltaSize)
	c.Int(&v.SchemaVer)
}

func (f *Finding) code(c *codec.Coder) {
	c.Strings(&f.Rule, &f.Detail)
	c.Uint64(&f.Item)
}
