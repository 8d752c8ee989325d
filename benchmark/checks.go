package main

import (
	"fmt"
	"time"
)

// Checks on what a run left behind. Reply checks happen per unit (exec.go);
// these look at the databases once the clients have stopped.

// postChecks stops the environment's servers and appends the state checks
// to the result: follower convergence and, for file-backed workloads, that
// a restart still has every acknowledged edit.
func (res *timedResult) postChecks(e *env, recs []*recorder) {
	acked := make(map[int]string)
	for _, r := range recs {
		for ref, desc := range r.acked {
			acked[ref] = desc
		}
	}
	res.Checks = append(res.Checks, stateChecks(e, acked)...)
	if e.fol != nil {
		res.Resyncs = e.fol.Resyncs() - 1
	}
}

// stateChecks runs the checks and leaves the environment stopped.
func stateChecks(e *env, acked map[int]string) []checkResult {
	var out []checkResult
	add := func(name string, err error) { out = append(out, checked(name, err)) }
	if e.fol != nil {
		add("follower_digest_equals_primary", e.converged(5*time.Second))
		// The bootstrap is the follower's one allowed resync.
		var err error
		if n := e.fol.Resyncs(); n != 1 {
			err = fmt.Errorf("%d bootstraps, want 1", n)
		}
		add("follower_resyncs_zero", err)
	}
	closeErr := e.stop()
	if e.dir == "" {
		return out
	}
	add("primary_closed_cleanly", closeErr)
	add("lost_acked_zero", e.lostAcked(acked))
	return out
}

// lostAcked opens the database directory again, as a restarted server
// would, and looks for the last acknowledged Description of every edited
// root. The process was not killed, so this exercises recovery from the
// files a clean close leaves, not the loss of unsynced bytes.
func (e *env) lostAcked(acked map[int]string) error {
	db, err := e.open()
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer db.Close()
	v := db.View()
	lost := 0
	first := ""
	for ref, want := range acked {
		got := ""
		if id, err := db.ResolvePath(e.d.names[ref] + ".Description"); err == nil {
			if o, ok := v.Object(id); ok {
				got = o.Value.Str()
			}
		}
		if got != want {
			if lost++; first == "" {
				first = fmt.Sprintf("%s has %q, acknowledged %q", e.d.names[ref], got, want)
			}
		}
	}
	if lost > 0 {
		return fmt.Errorf("lost_acked=%d of %d edited roots; %s", lost, len(acked), first)
	}
	return nil
}
