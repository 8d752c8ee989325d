package storage

// The log's records and the store's snapshots are written with
// internal/codec; these tests pin the parts of its contract the storage
// layer's bytes depend on.

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/codec"
)

func TestCodecRoundTrip(t *testing.T) {
	e := codec.NewEncoder(nil)
	e.Uint64(12345)
	e.Int64(-987)
	e.Int(42)
	e.Byte(0xAB)
	e.Bool(true)
	e.Bool(false)
	e.Float64(3.25)
	e.String("Alarms.Text.Body")
	e.Blob([]byte{1, 2, 3})
	e.Time(time.Unix(500000000, 0))
	e.Ints([]int{1, 0, 2})

	d := codec.NewDecoder(e.Bytes())
	if v := d.Uint64(); v != 12345 {
		t.Errorf("Uint64 = %d", v)
	}
	if v := d.Int64(); v != -987 {
		t.Errorf("Int64 = %d", v)
	}
	if v := d.Int(); v != 42 {
		t.Errorf("Int = %d", v)
	}
	if v := d.Byte(); v != 0xAB {
		t.Errorf("Byte = %x", v)
	}
	if v := d.Bool(); !v {
		t.Error("Bool true")
	}
	if v := d.Bool(); v {
		t.Error("Bool false")
	}
	if v := d.Float64(); v != 3.25 {
		t.Errorf("Float64 = %v", v)
	}
	if v := d.String(); v != "Alarms.Text.Body" {
		t.Errorf("String = %q", v)
	}
	if v := d.Blob(); !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Errorf("Blob = %v", v)
	}
	if v := d.Time(); v.Unix() != 500000000 {
		t.Errorf("Time = %v", v)
	}
	if v := d.Ints(); len(v) != 3 || v[0] != 1 || v[2] != 2 {
		t.Errorf("Ints = %v", v)
	}
	if d.Remaining() != 0 || d.Err() != nil {
		t.Errorf("Remaining = %d, Err = %v", d.Remaining(), d.Err())
	}
}

func TestCodecShortBuffer(t *testing.T) {
	for name, read := range map[string]func(*codec.Decoder){
		"Uint64":  func(d *codec.Decoder) { d.Uint64() },
		"Byte":    func(d *codec.Decoder) { d.Byte() },
		"Float64": func(d *codec.Decoder) { d.Float64() },
	} {
		d := codec.NewDecoder(nil)
		read(d)
		if !errors.Is(d.Err(), codec.ErrShortBuffer) {
			t.Errorf("%s on empty: %v", name, d.Err())
		}
	}
	e := codec.NewEncoder(nil)
	e.Uint64(100) // claims 100-byte string, provides none
	d := codec.NewDecoder(e.Bytes())
	if _ = d.String(); !errors.Is(d.Err(), codec.ErrShortBuffer) {
		t.Errorf("truncated String: %v", d.Err())
	}
}

// TestCodecStickyError pins the decoder contract: the first failure is
// kept, and every later read returns the zero value and consumes nothing.
func TestCodecStickyError(t *testing.T) {
	e := codec.NewEncoder(nil)
	e.Uint64(100) // a 100-byte string that is not there
	e.Int(7)
	d := codec.NewDecoder(e.Bytes())
	_ = d.String()
	first := d.Err()
	left := d.Remaining()
	if v := d.Int(); v != 0 || d.Remaining() != left || d.Err() != first {
		t.Errorf("read after failure: %d, %d bytes left (want %d), err %v", v, d.Remaining(), left, d.Err())
	}
	d.Fail(errors.New("later"))
	if d.Err() != first {
		t.Errorf("Fail replaced the first error: %v", d.Err())
	}
}

// TestCodecCountBounds refuses counts that cannot be satisfied by the bytes
// left, in Count and in Ints' length.
func TestCodecCountBounds(t *testing.T) {
	for _, n := range []int{-1, 2} {
		e := codec.NewEncoder(nil)
		e.Int(n)
		e.Byte(0)
		d := codec.NewDecoder(e.Bytes())
		if got := d.Count(); got != 0 || !errors.Is(d.Err(), codec.ErrBadCount) {
			t.Errorf("Count of %d over 1 byte = %d, %v", n, got, d.Err())
		}
	}
	e := codec.NewEncoder(nil)
	e.Int(1)
	e.Byte(0)
	if d := codec.NewDecoder(e.Bytes()); d.Count() != 1 || d.Err() != nil {
		t.Errorf("Count of 1 over 1 byte refused: %v", d.Err())
	}
	e = codec.NewEncoder(nil)
	e.Uint64(3)
	e.Int(1)
	if d := codec.NewDecoder(e.Bytes()); d.Ints() != nil || !errors.Is(d.Err(), codec.ErrBadCount) {
		t.Errorf("Ints of 3 over 1 byte: %v", d.Err())
	}
}

func TestCodecQuick(t *testing.T) {
	f := func(u uint64, i int64, s string, b []byte, fl float64) bool {
		e := codec.NewEncoder(nil)
		e.Uint64(u)
		e.Int64(i)
		e.String(s)
		e.Blob(b)
		e.Float64(fl)
		d := codec.NewDecoder(e.Bytes())
		u2, i2, s2, b2, f2 := d.Uint64(), d.Int64(), d.String(), d.Blob(), d.Float64()
		if d.Err() != nil {
			return false
		}
		return u2 == u && i2 == i && s2 == s && bytes.Equal(b2, b) &&
			(f2 == fl || (f2 != f2 && fl != fl)) // NaN-safe
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncoderReuse(t *testing.T) {
	e := codec.NewEncoder(make([]byte, 0, 64))
	e.String("hello")
	if e.Len() == 0 {
		t.Fatal("Len = 0 after write")
	}
	e.Reset()
	if e.Len() != 0 {
		t.Error("Reset did not clear")
	}
	e.Uint64(7)
	d := codec.NewDecoder(e.Bytes())
	if v := d.Uint64(); v != 7 {
		t.Error("reuse after Reset broken")
	}
}

func TestDecoderOversizeGuards(t *testing.T) {
	e := codec.NewEncoder(nil)
	e.Uint64(codec.MaxBlob + 1)
	for name, read := range map[string]func(*codec.Decoder){
		"string": func(d *codec.Decoder) { _ = d.String() },
		"blob":   func(d *codec.Decoder) { d.Blob() },
		"ints":   func(d *codec.Decoder) { d.Ints() },
	} {
		d := codec.NewDecoder(e.Bytes())
		if read(d); !errors.Is(d.Err(), codec.ErrOversize) {
			t.Errorf("oversize %s accepted", name)
		}
	}
}
