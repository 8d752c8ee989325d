package codec

import (
	"errors"
	"testing"
)

// TestStringsGroup round-trips a group of strings (empty ones included),
// checks the decoded strings are copies, not aliases of the buffer, and
// refuses a group whose lengths overrun the bytes left or MaxBlob.
func TestStringsGroup(t *testing.T) {
	e := NewEncoder(nil)
	e.Strings("Alarms", "", "Alarms.Text[0]", "x")
	e.Int(7)
	buf := e.Bytes()
	d := NewDecoder(buf)
	var a, b, c, x string
	d.Strings(&a, &b, &c, &x)
	if n := d.Int(); d.Err() != nil || n != 7 || d.Remaining() != 0 {
		t.Fatalf("after the group: %d, %v, %d bytes left", n, d.Err(), d.Remaining())
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
	d = NewDecoder(short.Bytes())
	if d.Strings(&a, &b); !errors.Is(d.Err(), ErrShortBuffer) || a != "" || b != "" {
		t.Errorf("short group: %q %q, %v", a, b, d.Err())
	}
	huge := NewEncoder(nil)
	huge.Uint64(MaxBlob + 1)
	d = NewDecoder(huge.Bytes())
	if d.Strings(&a); !errors.Is(d.Err(), ErrOversize) {
		t.Errorf("oversize group: %v", d.Err())
	}
}
