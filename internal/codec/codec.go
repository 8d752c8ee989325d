// Package codec is SEED's one binary encoding: unsigned and zig-zag
// varints, fixed little-endian floats, length-prefixed strings and blobs.
// The write-ahead log records, the snapshots and the client/server frames
// all use it. It imports nothing of the repository, so every layer that
// writes bytes can share it.
//
// The Decoder's contract: it keeps its first failure, every count is bounded
// by the bytes left, a length never exceeds MaxBlob, and what String and
// Blob return is copied, never an alias of the input buffer.
//
// A Coder runs one method per type in both directions: over an Encoder it
// writes the fields it is pointed at, over a Decoder it fills them, under
// the same contract. The wire frames are written this way; the journal's,
// the snapshot's and the version tree's codecs use the Encoder and the
// Decoder directly.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"
)

// Codec errors.
var (
	ErrShortBuffer = errors.New("codec: short buffer")
	ErrOversize    = errors.New("codec: element exceeds size limit")
	ErrBadCount    = errors.New("codec: element count out of range")
)

// MaxBlob bounds a single encoded string or byte slice (16 MiB); a database
// for specification documents never approaches this, so larger lengths
// indicate corruption.
const MaxBlob = 16 << 20

// Encoder appends primitive values to a byte buffer in a deterministic
// little-endian/uvarint format.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder writing into an optional pre-allocated
// buffer.
func NewEncoder(buf []byte) *Encoder { return &Encoder{buf: buf[:0]} }

// Bytes returns the encoded buffer.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of encoded bytes.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset discards the encoded content, keeping the allocation.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Uint64 appends an unsigned varint.
func (e *Encoder) Uint64(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// Int64 appends a signed varint (zig-zag).
func (e *Encoder) Int64(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// Int appends an int as a signed varint.
func (e *Encoder) Int(v int) { e.Int64(int64(v)) }

// Byte appends a raw byte.
func (e *Encoder) Byte(b byte) { e.buf = append(e.buf, b) }

// Bool appends a boolean as one byte.
func (e *Encoder) Bool(b bool) {
	if b {
		e.Byte(1)
	} else {
		e.Byte(0)
	}
}

// Float64 appends an IEEE-754 double, little-endian.
func (e *Encoder) Float64(f float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(f))
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Uint64(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Blob appends a length-prefixed byte slice.
func (e *Encoder) Blob(b []byte) {
	e.Uint64(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// Time appends a time as Unix seconds (UTC, second precision suffices for
// DATE values and version timestamps).
func (e *Encoder) Time(t time.Time) { e.Int64(t.Unix()) }

// Ints appends a length-prefixed int slice (used for version numbers).
func (e *Encoder) Ints(v []int) {
	e.Uint64(uint64(len(v)))
	for _, n := range v {
		e.Int(n)
	}
}

// Decoder reads values written by Encoder. It keeps its first failure: a
// read that fails records the error, and from then on every read returns
// the zero value and consumes nothing. A decoder therefore reads a whole
// record, then checks Err once — before it acts on what it read.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder returns a decoder over buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Reset starts the decoder over buf, keeping no failure of a previous input.
func (d *Decoder) Reset(buf []byte) { *d = Decoder{buf: buf} }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Err returns the first failure, or nil.
func (d *Decoder) Err() error { return d.err }

// Fail records err unless a failure is already kept; Fail(nil) does
// nothing. Codecs layered on the decoder report their own malformations
// through it, so a caller has one error to check.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Uint64 reads an unsigned varint.
func (d *Decoder) Uint64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.Fail(fmt.Errorf("%w: uvarint at offset %d", ErrShortBuffer, d.off))
		return 0
	}
	d.off += n
	return v
}

// Int64 reads a signed varint.
func (d *Decoder) Int64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.Fail(fmt.Errorf("%w: varint at offset %d", ErrShortBuffer, d.off))
		return 0
	}
	d.off += n
	return v
}

// Int reads an int.
func (d *Decoder) Int() int { return int(d.Int64()) }

// Count reads an element count written as Encoder.Int(len(...)). Every
// element takes at least one byte, so a count that is negative or larger
// than Remaining is corrupt; it fails with ErrBadCount and reads as 0, and
// never sizes an allocation.
func (d *Decoder) Count() int {
	off := d.off
	n := d.Int64()
	if n < 0 || n > int64(d.Remaining()) {
		d.Fail(fmt.Errorf("%w: %d elements with %d bytes left at offset %d", ErrBadCount, n, d.Remaining(), off))
		return 0
	}
	return int(n)
}

// Byte reads one raw byte.
func (d *Decoder) Byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.Fail(fmt.Errorf("%w: byte at offset %d", ErrShortBuffer, d.off))
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

// Bool reads a boolean.
func (d *Decoder) Bool() bool { return d.Byte() != 0 }

// Float64 reads an IEEE-754 double.
func (d *Decoder) Float64() float64 {
	if d.err != nil {
		return 0
	}
	if d.Remaining() < 8 {
		d.Fail(fmt.Errorf("%w: float64 at offset %d", ErrShortBuffer, d.off))
		return 0
	}
	bits := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return math.Float64frombits(bits)
}

// bytes reads a length-prefixed byte run without copying it.
func (d *Decoder) bytes(what string) []byte {
	n := d.Uint64()
	if d.err != nil {
		return nil
	}
	if n > MaxBlob {
		d.Fail(fmt.Errorf("%w: %s of %d bytes", ErrOversize, what, n))
		return nil
	}
	if d.Remaining() < int(n) {
		d.Fail(fmt.Errorf("%w: %s of %d bytes at offset %d", ErrShortBuffer, what, n, d.off))
		return nil
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

// String reads a length-prefixed string.
func (d *Decoder) String() string { return string(d.bytes("string")) }

// maxGroup bounds a Strings group.
const maxGroup = 8

// Strings reads a group written by Coder.Strings into dst, which must
// name as many strings as were written. The strings share one copy of
// their bytes — one allocation for the group, never an alias of the
// buffer — so a kept string keeps its group's bytes alive, and nothing
// more. On failure every dst is "".
func (d *Decoder) Strings(dst ...*string) {
	if len(dst) > maxGroup {
		panic("codec: Strings group larger than maxGroup")
	}
	var lens [maxGroup]int
	total := 0
	for i := range dst {
		*dst[i] = ""
		n := d.Uint64()
		if n > MaxBlob {
			d.Fail(fmt.Errorf("%w: string of %d bytes", ErrOversize, n))
		}
		if d.err != nil {
			return
		}
		lens[i] = int(n)
		total += lens[i]
	}
	if d.Remaining() < total {
		d.Fail(fmt.Errorf("%w: %d strings of %d bytes at offset %d", ErrShortBuffer, len(dst), total, d.off))
		return
	}
	all := string(d.buf[d.off : d.off+total])
	d.off += total
	for i, p := range dst {
		*p, all = all[:lens[i]], all[lens[i]:]
	}
}

// Blob reads a length-prefixed byte slice (copied).
func (d *Decoder) Blob() []byte {
	b := d.bytes("blob")
	if d.err != nil {
		return nil
	}
	return append(make([]byte, 0, len(b)), b...)
}

// Time reads a time written by Encoder.Time.
func (d *Decoder) Time() time.Time {
	sec := d.Int64()
	if d.err != nil {
		return time.Time{}
	}
	return time.Unix(sec, 0).UTC()
}

// Ints reads a length-prefixed int slice, its length bounded like Count.
func (d *Decoder) Ints() []int {
	n := d.Uint64()
	if d.err != nil {
		return nil
	}
	if n > MaxBlob {
		d.Fail(fmt.Errorf("%w: int slice of %d", ErrOversize, n))
		return nil
	}
	if n > uint64(d.Remaining()) {
		d.Fail(fmt.Errorf("%w: int slice of %d with %d bytes left", ErrBadCount, n, d.Remaining()))
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = d.Int()
	}
	if d.err != nil {
		return nil
	}
	return out
}

// Coder states a type's encoding once, for both directions: it wraps an
// Encoder (E set) or a Decoder (D set), and each method takes a pointer to
// the value it codes. Encoding reads through the pointer; decoding writes
// through it, under the Decoder's contract — the first failure is kept (and
// every later value decodes as its zero), every count is bounded by the
// bytes left before it sizes an allocation, and nothing decoded aliases the
// buffer. One method per type therefore writes and reads the same fields in
// the same order.
type Coder struct {
	E *Encoder
	D *Decoder
}

// Uint64 codes an unsigned varint.
func (c *Coder) Uint64(p *uint64) {
	if c.E != nil {
		c.E.Uint64(*p)
	} else {
		*p = c.D.Uint64()
	}
}

// Int64 codes a signed varint.
func (c *Coder) Int64(p *int64) {
	if c.E != nil {
		c.E.Int64(*p)
	} else {
		*p = c.D.Int64()
	}
}

// Int codes an int as a signed varint.
func (c *Coder) Int(p *int) {
	if c.E != nil {
		c.E.Int(*p)
	} else {
		*p = c.D.Int()
	}
}

// Byte codes one raw byte.
func (c *Coder) Byte(p *byte) {
	if c.E != nil {
		c.E.Byte(*p)
	} else {
		*p = c.D.Byte()
	}
}

// Bool codes a boolean as one byte.
func (c *Coder) Bool(p *bool) {
	if c.E != nil {
		c.E.Bool(*p)
	} else {
		*p = c.D.Bool()
	}
}

// String codes a length-prefixed string.
func (c *Coder) String(p *string) {
	if c.E != nil {
		c.E.String(*p)
	} else {
		*p = c.D.String()
	}
}

// Strings codes a group of at most maxGroup strings: every length, then all
// their bytes, so a decoded group costs one allocation (Decoder.Strings).
func (c *Coder) Strings(ps ...*string) {
	if c.E == nil {
		c.D.Strings(ps...)
		return
	}
	buf := c.E.buf
	for _, p := range ps {
		buf = binary.AppendUvarint(buf, uint64(len(*p)))
	}
	for _, p := range ps {
		buf = append(buf, *p...)
	}
	c.E.buf = buf
}

// Blob codes a length-prefixed byte slice; an empty one decodes as nil.
func (c *Coder) Blob(p *[]byte) {
	if c.E != nil {
		c.E.Blob(*p)
	} else if b := c.D.Blob(); len(b) > 0 {
		*p = b
	} else {
		*p = nil
	}
}

// Slice codes a count, then each element with fn; an empty slice decodes
// as nil. Every element encodes to at least minSize bytes, so a count the
// bytes left cannot hold fails with ErrBadCount before it sizes an
// allocation.
func Slice[T any](c *Coder, p *[]T, minSize int, fn func(*T, *Coder)) {
	if c.E != nil {
		c.E.Int(len(*p))
		for i := range *p {
			fn(&(*p)[i], c)
		}
		return
	}
	d := c.D
	n := d.Count()
	if n > d.Remaining()/minSize {
		d.Fail(fmt.Errorf("%w: %d elements of at least %d bytes with %d left", ErrBadCount, n, minSize, d.Remaining()))
		n = 0
	}
	if n == 0 {
		*p = nil
		return
	}
	s := make([]T, n)
	for i := range s {
		fn(&s[i], c)
	}
	*p = s
}

// Ptr codes a presence flag, then the value with fn if there is one.
func Ptr[T any](c *Coder, p **T, fn func(*T, *Coder)) {
	present := *p != nil
	if c.Bool(&present); !present {
		if c.D != nil {
			*p = nil
		}
		return
	}
	if c.D != nil {
		*p = new(T)
	}
	fn(*p, c)
}
