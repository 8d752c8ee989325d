package main

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/client"
	"repro/internal/wire"
)

// Running steps and checking replies; shared by the timed and the traced
// run.

var (
	errTimeout    = errors.New("unit exceeded the 1 s limit")
	errWrongReply = errors.New("wrong reply")
)

// unitFailure reports whether err fails one unit only — the server refused
// it, answered wrongly or too late — as opposed to a dead connection.
func unitFailure(err error) bool {
	return errors.Is(err, client.ErrRemote) || errors.Is(err, errTimeout) || errors.Is(err, errWrongReply)
}

// observer sees every request of a unit with its reply and timing. stale
// marks a read-back poll that did not yet see the unit's edit.
type observer func(st *step, req *wire.Request, resp *wire.Response, start, end time.Time, stale bool)

// send puts a step's request on its connection. The request is copied:
// Send writes the sequence number into it.
func (c *conn) send(st *step) (*wire.Request, *client.Pending, error) {
	req := st.req
	p, err := c.to(st.to).Send(&req)
	return &req, p, err
}

// check verifies a reply against what the generator expects.
func check(d *dataset, st *step, resp *wire.Response) error {
	switch st.req.Op {
	case wire.OpQuery:
		if resp.Total != st.wantTotal || len(resp.Objects) != st.wantObjects {
			return fmt.Errorf("%w: query %+v: total %d with %d objects, want %d with %d", errWrongReply,
				*st.req.Query, resp.Total, len(resp.Objects), st.wantTotal, st.wantObjects)
		}
	case wire.OpGet, wire.OpCheckout:
		if len(resp.Snapshots) != len(st.refs) {
			return fmt.Errorf("%w: %s %v: %d snapshots", errWrongReply, st.req.Op, st.req.Names, len(resp.Snapshots))
		}
		for i, ref := range st.refs {
			if err := d.checkSnapshot(resp.Snapshots[i], ref); err != nil {
				return err
			}
		}
	case wire.OpCheckin:
		// An acknowledged check-in's reply is empty.
	default:
		return fmt.Errorf("%w: op %s is not one the generator emits", errWrongReply, st.req.Op)
	}
	return nil
}

// descriptionOf extracts the root's Description from a Get reply.
func descriptionOf(s wire.Snapshot) string {
	path := s.Root + ".Description"
	for _, o := range s.Objects {
		if o.Path == path {
			return o.Value
		}
	}
	return ""
}

// runUnit takes one unit's steps in lockstep on c and reports how many
// stale read-back polls it needed. Any error, wrong reply, or a unit that
// outlasts unitTimeout fails the unit.
func runUnit(c *conn, d *dataset, u *unit, obs observer) (stale int, err error) {
	begin := time.Now()
	for i := range u.steps {
		st := &u.steps[i]
		for {
			start := time.Now()
			req, p, err := c.send(st)
			if err != nil {
				return stale, err
			}
			resp, err := p.Await()
			end := time.Now()
			if err != nil {
				return stale, fmt.Errorf("%s %v: %w", st.req.Op, st.req.Names, err)
			}
			if err := check(d, st, resp); err != nil {
				return stale, err
			}
			seen := !st.readBack || descriptionOf(resp.Snapshots[0]) == st.wantDesc
			if obs != nil {
				obs(st, req, resp, start, end, !seen)
			}
			if seen {
				break
			}
			// The follower has not applied the check-in yet: ask again.
			stale++
			if end.Sub(begin) > unitTimeout {
				return stale, fmt.Errorf("read-back of %s: edit not visible: %w", st.req.Names[0], errTimeout)
			}
		}
	}
	if time.Since(begin) > unitTimeout {
		return stale, errTimeout
	}
	return stale, nil
}
