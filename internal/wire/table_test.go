package wire_test

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"testing"

	"repro/internal/client"
	"repro/internal/wire"
)

// TestErrorTable walks wire.Refusals, the one error table. Codes and
// sentinels are unique; the codes are the strings clients have always seen
// on the wire; a wrapped sentinel maps back to its own row; a response
// carrying the code rebuilds, in the client, an error that is the row's
// sentinel and still wraps client.ErrRemote; and every row has a class.
func TestErrorTable(t *testing.T) {
	var codes []string
	for _, r := range wire.Refusals {
		codes = append(codes, r.Code)
	}
	want := []string{"locked", "not-locked", "conflict", "overloaded", "shutting-down", "not-primary"}
	if !slices.Equal(codes, want) {
		t.Errorf("wire codes = %q, want %q", codes, want)
	}

	// A stand-in server refuses each hello with the code it is handed, so
	// client.Dial returns the client's rebuild of that refusal.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	refuse := make(chan string)
	defer close(refuse)
	go func() {
		for code := range refuse {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			var hello wire.Request
			if wire.NewReader(conn).Read(&hello) == nil {
				_ = wire.NewWriter(conn).Write(&wire.Response{Err: "refused", Code: code})
			}
			conn.Close()
		}
	}()

	seenCode, seenErr := make(map[string]bool), make(map[error]string)
	for _, r := range wire.Refusals {
		if seenCode[r.Code] {
			t.Errorf("code %q has two rows", r.Code)
		}
		if other, dup := seenErr[r.Err]; dup {
			t.Errorf("codes %q and %q share the sentinel %v", other, r.Code, r.Err)
		}
		seenCode[r.Code], seenErr[r.Err] = true, r.Code
		if got := wire.RefusalOf(fmt.Errorf("wrapped: %w", r.Err)); got == nil || got.Code != r.Code {
			t.Errorf("wrapped %v maps onto row %+v, want code %q", r.Err, got, r.Code)
		}
		if got := wire.RefusalByCode(r.Code); got == nil || !errors.Is(got.Err, r.Err) {
			t.Errorf("code %q looks up row %+v", r.Code, got)
		}
		if r.Class < wire.ClassPermanent || r.Class > wire.ClassRedial {
			t.Errorf("code %q has no retry class (%d)", r.Code, r.Class)
		}
		refuse <- r.Code
		_, err := client.Dial(ln.Addr().String())
		if !errors.Is(err, r.Err) || !errors.Is(err, client.ErrRemote) {
			t.Errorf("code %q rebuilds %v: want %v wrapping client.ErrRemote", r.Code, err, r.Err)
		}
	}
}
