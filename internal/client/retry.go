package client

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/wire"
)

// RetryPolicy shapes Retry's backoff: the delay before attempt n+1 is
// drawn uniformly from [d/2, d) where d = min(Cap, Base·2ⁿ) — exponential
// growth, a cap so a long outage never produces unbounded sleeps, and
// jitter so a herd of clients rejected together does not retry together.
type RetryPolicy struct {
	Base     time.Duration // first backoff step (default 5ms)
	Cap      time.Duration // largest backoff step (default 500ms)
	Attempts int           // total attempts including the first (default 8)
}

// DefaultRetry is the policy Retry uses: 8 attempts, 5ms doubling to a
// 500ms cap — about two seconds of total patience.
var DefaultRetry = RetryPolicy{Base: 5 * time.Millisecond, Cap: 500 * time.Millisecond, Attempts: 8}

// Classify maps an error onto the class of the wire.Refusals row whose
// sentinel it wraps. Every other error (transport failures included)
// classifies as permanent: a retry loop must not spin on an error it cannot
// reason about. Retryable collapses the class to a boolean; callers that
// manage their own connections branch on the class directly.
func Classify(err error) wire.FailureClass {
	if r := wire.RefusalOf(err); r != nil {
		return r.Class
	}
	return wire.ClassPermanent
}

// Retryable reports whether an error is transient server pushback worth
// retrying: a lock held by another client, a check-in conflict, or an
// admission-control rejection. Everything else — including
// wire.ErrShuttingDown and wire.ErrNotPrimary, which this server will never
// stop returning — is permanent for the purposes of a retry loop against
// one connection.
func Retryable(err error) bool {
	return Classify(err) == wire.ClassRetry
}

// Retry runs op, retrying with DefaultRetry's jittered exponential backoff
// while it fails with a Retryable error and ctx is live. It returns nil on
// the first success, the error unchanged when it is not retryable, and the
// last retryable error (annotated) when attempts or the context run out —
// still matchable with errors.Is against the underlying sentinel.
func Retry(ctx context.Context, op func() error) error {
	return RetryWith(ctx, DefaultRetry, op)
}

// RetryWith is Retry under an explicit policy.
func RetryWith(ctx context.Context, p RetryPolicy, op func() error) error {
	if p.Base <= 0 {
		p.Base = DefaultRetry.Base
	}
	if p.Cap <= 0 {
		p.Cap = DefaultRetry.Cap
	}
	if p.Attempts <= 0 {
		p.Attempts = DefaultRetry.Attempts
	}
	var last error
	for n := 0; n < p.Attempts; n++ {
		if err := ctx.Err(); err != nil {
			if last == nil {
				return err
			}
			return fmt.Errorf("retry cancelled: %w (last attempt: %w)", err, last)
		}
		last = op()
		if last == nil || !Retryable(last) {
			return last
		}
		if n == p.Attempts-1 {
			break // spent; no point sleeping just to give up
		}
		d := p.Base << n
		if d <= 0 || d > p.Cap {
			d = p.Cap
		}
		// Equal jitter: [d/2, d) keeps a meaningful floor while spreading
		// a synchronized burst of rejections across half a step.
		sleep := d/2 + rand.N(d/2+1)
		select {
		case <-ctx.Done():
			return fmt.Errorf("retry cancelled: %w (last attempt: %w)", ctx.Err(), last)
		case <-time.After(sleep):
		}
	}
	return fmt.Errorf("retry attempts exhausted: %w", last)
}
