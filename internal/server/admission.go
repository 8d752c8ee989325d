package server

import (
	"sync"
	"sync/atomic"
)

// admission is the server's overload-protection gate: a global limit on
// requests executing at once, with a bounded FIFO wait queue in front of
// it. A request that finds the limit reached waits for a slot if the queue
// has room and is shed with wire.ErrOverloaded otherwise — so offered
// load beyond capacity turns into fast, typed, retryable rejections
// instead of unbounded queues in the dispatch path (pipelined clients can
// otherwise park arbitrarily many frames in handler and channel buffers).
//
// The zero value admits everything (no limit); configure must run before
// the first acquire.
type admission struct {
	mu      sync.Mutex
	limit   int             // seed:guarded-by(mu) — max requests executing at once (0 = unlimited)
	depth   int             // seed:guarded-by(mu) — max requests waiting for a slot
	running int             // seed:guarded-by(mu) — admission tokens currently held
	waiters []chan struct{} // seed:guarded-by(mu) — FIFO of blocked acquires; closed to grant

	rejected atomic.Uint64 // requests shed at the full queue
}

// configure sets the limits. Call before the server starts serving.
func (a *admission) configure(limit, depth int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.limit = limit
	a.depth = depth
}

// acquire takes one execution token, waiting in the bounded queue when the
// limit is reached. It returns (release, true, false) on admission,
// (nil, false, true) when the request must be shed as overloaded, and
// (nil, false, false) when cancel closed while waiting (server teardown —
// drop the request without an answer, the connection is going away).
// release must be called exactly once after the request finishes.
func (a *admission) acquire(cancel <-chan struct{}) (release func(), ok, shed bool) {
	a.mu.Lock()
	if a.limit <= 0 || a.running < a.limit {
		a.running++
		a.mu.Unlock()
		return a.release, true, false
	}
	if len(a.waiters) >= a.depth {
		a.mu.Unlock()
		a.rejected.Add(1)
		return nil, false, true
	}
	ch := make(chan struct{})
	a.waiters = append(a.waiters, ch)
	a.mu.Unlock()

	select {
	case <-ch:
		// Granted: the releasing request transferred its token to us.
		return a.release, true, false
	case <-cancel:
		a.mu.Lock()
		for i, w := range a.waiters {
			if w == ch {
				a.waiters = append(a.waiters[:i], a.waiters[i+1:]...)
				a.mu.Unlock()
				return nil, false, false
			}
		}
		// Not queued anymore: a release granted us the token in the same
		// instant the cancellation fired. Hand the token straight back so
		// it is not leaked.
		a.mu.Unlock()
		a.release()
		return nil, false, false
	}
}

// release returns one token: the longest-waiting queued request inherits
// it, otherwise the running count drops.
func (a *admission) release() {
	a.mu.Lock()
	if len(a.waiters) > 0 {
		ch := a.waiters[0]
		a.waiters = a.waiters[1:]
		a.mu.Unlock()
		close(ch) // token transferred; running stays
		return
	}
	a.running--
	a.mu.Unlock()
}

// gauges reports the current in-flight and queued request counts.
func (a *admission) gauges() (running, queued int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.running, len(a.waiters)
}
