package client

import (
	"errors"
	"testing"

	"repro/internal/wire"
)

// TestEveryWireCodeHandled walks wire.Codes — the one list of codes that
// cross the wire — and requires remoteError to rebuild a distinct sentinel
// for each and Classify to make a decision about it: a retry class, or an
// explicit entry in the permanent set below. A code added to the list
// without a client-side row fails here.
func TestEveryWireCodeHandled(t *testing.T) {
	sentinels := []error{ErrLocked, ErrNotLocked, ErrConflict, ErrOverloaded, ErrShuttingDown, ErrNotPrimary}
	permanent := map[string]bool{wire.CodeNotLocked: true} // the client must check the object out first
	seen := make(map[error]string)
	for _, code := range wire.Codes {
		err := remoteError(&wire.Response{Err: "refused", Code: code})
		if !errors.Is(err, ErrRemote) {
			t.Errorf("code %q: %v does not wrap ErrRemote", code, err)
		}
		var matched error
		for _, s := range sentinels {
			if errors.Is(err, s) {
				matched = s
			}
		}
		if matched == nil {
			t.Errorf("code %q rebuilds no sentinel: %v", code, err)
			continue
		}
		if other, dup := seen[matched]; dup {
			t.Errorf("codes %q and %q rebuild the same sentinel %v", other, code, matched)
		}
		seen[matched] = code
		if class := Classify(err); (class == ClassPermanent) != permanent[code] {
			t.Errorf("code %q classifies as %v (listed permanent: %v)", code, class, permanent[code])
		}
	}
}
