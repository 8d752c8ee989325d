package codec

import (
	"errors"
	"reflect"
	"runtime"
	"testing"
)

// encodeWith codes v through an encoding Coder and returns the bytes.
func encodeWith(code func(*Coder)) []byte {
	c := &Coder{E: NewEncoder(nil)}
	code(c)
	return c.E.Bytes()
}

// TestStringsGroup round-trips a group of strings (empty ones included),
// checks the decoded strings are copies, not aliases of the buffer, and
// refuses a group whose lengths overrun the bytes left or MaxBlob.
func TestStringsGroup(t *testing.T) {
	a, b, c, x, n := "Alarms", "", "Alarms.Text[0]", "x", 7
	buf := encodeWith(func(e *Coder) {
		e.Strings(&a, &b, &c, &x)
		e.Int(&n)
	})
	a, b, c, x, n = "", "#", "", "", 0
	d := &Coder{D: NewDecoder(buf)}
	d.Strings(&a, &b, &c, &x)
	if d.Int(&n); d.D.Err() != nil || n != 7 || d.D.Remaining() != 0 {
		t.Fatalf("after the group: %d, %v, %d bytes left", n, d.D.Err(), d.D.Remaining())
	}
	for i := range buf {
		buf[i] = '#'
	}
	if a != "Alarms" || b != "" || c != "Alarms.Text[0]" || x != "x" {
		t.Errorf("group = %q %q %q %q", a, b, c, x)
	}

	short := NewEncoder(nil)
	short.Uint64(2)
	short.Uint64(3)
	short.Byte('a') // 5 bytes claimed, 1 present
	a, b = "keep", "keep"
	dd := NewDecoder(short.Bytes())
	if dd.Strings(&a, &b); !errors.Is(dd.Err(), ErrShortBuffer) || a != "" || b != "" {
		t.Errorf("short group: %q %q, %v", a, b, dd.Err())
	}
	huge := NewEncoder(nil)
	huge.Uint64(MaxBlob + 1)
	dd = NewDecoder(huge.Bytes())
	if dd.Strings(&a); !errors.Is(dd.Err(), ErrOversize) {
		t.Errorf("oversize group: %v", dd.Err())
	}
}

// sample holds one value of every kind a Coder codes.
type sample struct {
	U       uint64
	I64     int64
	I       int
	B       byte
	Flag    bool
	S       string
	G1, G2  string
	Blob    []byte
	Items   []item
	P       *item
	Missing *item
}

type item struct{ N uint64 }

func (it *item) code(c *Coder) { c.Uint64(&it.N) }

func (s *sample) code(c *Coder) {
	c.Uint64(&s.U)
	c.Int64(&s.I64)
	c.Int(&s.I)
	c.Byte(&s.B)
	c.Bool(&s.Flag)
	c.String(&s.S)
	c.Strings(&s.G1, &s.G2)
	c.Blob(&s.Blob)
	Slice(c, &s.Items, 1, (*item).code)
	Ptr(c, &s.P, (*item).code)
	Ptr(c, &s.Missing, (*item).code)
}

// TestCoder holds the Coder to the Decoder's contract in both directions:
// every method round-trips, writing the same bytes as the Encoder's own
// methods; a failure sticks; a count the bytes left cannot hold is refused
// before it sizes an allocation; absent pointers and empty blobs and slices
// decode as nil; and a decoded value never aliases the buffer.
func TestCoder(t *testing.T) {
	want := sample{U: 1 << 40, I64: -5, I: 300, B: 0xfe, Flag: true, S: "str", G1: "g1", G2: "",
		Blob: []byte{1, 2}, Items: []item{{3}, {4}}, P: &item{5}}
	buf := encodeWith(want.code)

	e := NewEncoder(nil)
	e.Uint64(1 << 40)
	e.Int64(-5)
	e.Int(300)
	e.Byte(0xfe)
	e.Bool(true)
	e.String("str")
	e.Uint64(2)
	e.Uint64(0)
	e.Byte('g')
	e.Byte('1')
	e.Blob([]byte{1, 2})
	e.Int(2)
	e.Uint64(3)
	e.Uint64(4)
	e.Bool(true)
	e.Uint64(5)
	e.Bool(false)
	if !reflect.DeepEqual(buf, e.Bytes()) {
		t.Fatalf("Coder wrote %v, the Encoder's methods %v", buf, e.Bytes())
	}

	got := sample{Blob: []byte{9}, Items: []item{{9}}, Missing: &item{9}}
	d := &Coder{D: NewDecoder(buf)}
	if got.code(d); d.D.Err() != nil || d.D.Remaining() != 0 {
		t.Fatalf("decode: %v, %d bytes left", d.D.Err(), d.D.Remaining())
	}
	for i := range buf {
		buf[i] = 0
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got  %+v\n want %+v", got, want)
	}

	// Empty blob and slice, absent pointer: nil, whatever the target held.
	empty := encodeWith((&sample{}).code)
	got = sample{Blob: []byte{9}, Items: []item{{9}}, P: &item{9}}
	if got.code(&Coder{D: NewDecoder(empty)}); got.Blob != nil || got.Items != nil || got.P != nil {
		t.Errorf("empty values decoded as %v %v %v, want nil", got.Blob, got.Items, got.P)
	}

	// The first failure sticks: a string overrunning the buffer fails, and
	// every later value decodes as its zero although bytes remain.
	n, s, m := uint64(7), "abc", uint64(8)
	bad := encodeWith(func(c *Coder) { c.Uint64(&n); c.String(&s); c.Uint64(&m) })
	bad[1] = 100 // the string's length
	n, s, m = 1, "x", 1
	d = &Coder{D: NewDecoder(bad)}
	d.Uint64(&n)
	d.String(&s)
	first := d.D.Err()
	if d.Uint64(&m); !errors.Is(first, ErrShortBuffer) || d.D.Err() != first || n != 7 || s != "" || m != 0 {
		t.Errorf("after a failure: n=%d s=%q m=%d, err %v then %v", n, s, m, first, d.D.Err())
	}
}

// TestCoderSliceBound: a count above the bytes left over minSize fails with
// ErrBadCount, calls no element coder and allocates no element.
func TestCoderSliceBound(t *testing.T) {
	type big [1 << 16]byte
	e := NewEncoder(nil)
	e.Int(50)
	e.Blob(make([]byte, 100)) // 101 bytes left: at most 25 elements of 4
	var ms0, ms1 runtime.MemStats
	var got []big
	calls := 0
	d := &Coder{D: NewDecoder(e.Bytes())}
	runtime.ReadMemStats(&ms0)
	Slice(d, &got, 4, func(*big, *Coder) { calls++ })
	runtime.ReadMemStats(&ms1)
	if !errors.Is(d.D.Err(), ErrBadCount) || got != nil || calls != 0 {
		t.Fatalf("oversize count: %v, %d elements, %d calls", d.D.Err(), len(got), calls)
	}
	if grew := ms1.TotalAlloc - ms0.TotalAlloc; grew >= 1<<16 {
		t.Errorf("a refused count allocated %d bytes", grew)
	}
}
