package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUnknownExperiment: an id that matches no registered experiment — e12,
// retired long ago, or e8, retired with the rest of E8-E14 — must fail loudly
// and name the valid ids, not run nothing and exit 0.
func TestUnknownExperiment(t *testing.T) {
	for _, id := range []string{"e12", "e8"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-exp", id}, &stdout, &stderr); code != 2 {
			t.Errorf("-exp %s exit %d, want 2", id, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("-exp %s ran something:\n%s", id, stdout.String())
		}
		if !strings.Contains(stderr.String(), experimentIDs()) {
			t.Errorf("-exp %s stderr %q does not name the valid ids", id, stderr.String())
		}
	}
}
