package client_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/wire"
)

func TestRetrySucceedsAfterTransientFailures(t *testing.T) {
	calls := 0
	err := client.RetryWith(context.Background(),
		client.RetryPolicy{Base: time.Millisecond, Cap: 4 * time.Millisecond, Attempts: 6},
		func() error {
			calls++
			if calls < 3 {
				return fmt.Errorf("wrapped: %w", wire.ErrOverloaded)
			}
			return nil
		})
	if err != nil {
		t.Fatalf("retry failed: %v", err)
	}
	if calls != 3 {
		t.Errorf("calls = %d, want 3", calls)
	}
}

func TestRetryStopsOnPermanentError(t *testing.T) {
	boom := errors.New("permanent")
	calls := 0
	err := client.Retry(context.Background(), func() error { calls++; return boom })
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want the permanent error unchanged", err)
	}
	if calls != 1 {
		t.Errorf("calls = %d, want 1 (no retries of a permanent error)", calls)
	}
}

func TestRetryExhaustionKeepsIdentity(t *testing.T) {
	calls := 0
	err := client.RetryWith(context.Background(),
		client.RetryPolicy{Base: time.Microsecond, Cap: time.Microsecond, Attempts: 4},
		func() error { calls++; return wire.ErrLocked })
	if calls != 4 {
		t.Errorf("calls = %d, want 4", calls)
	}
	if !errors.Is(err, wire.ErrLocked) {
		t.Errorf("exhaustion error %v lost the sentinel identity", err)
	}
}

func TestRetryHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	done := make(chan error, 1)
	go func() {
		done <- client.RetryWith(ctx,
			client.RetryPolicy{Base: time.Hour, Cap: time.Hour, Attempts: 10},
			func() error { calls++; return wire.ErrConflict })
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
		if !errors.Is(err, wire.ErrConflict) {
			t.Errorf("err = %v, should keep the last attempt's identity", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("retry did not notice the cancelled context")
	}
	if calls != 1 {
		t.Errorf("calls = %d, want 1", calls)
	}
}

// TestRetryableClassification: Retryable holds for exactly the rows of the
// wire error table in the retry class, wrapped or not, and for nothing the
// table does not name. A draining server or a follower is never retried in
// place: it will not stop refusing.
func TestRetryableClassification(t *testing.T) {
	for _, r := range wire.Refusals {
		if got := client.Retryable(fmt.Errorf("w: %w", r.Err)); got != (r.Class == wire.ClassRetry) {
			t.Errorf("Retryable(%v) = %v, row class %v", r.Err, got, r.Class)
		}
	}
	for _, err := range []error{wire.ErrNotLocked, wire.ErrShuttingDown, wire.ErrNotPrimary, client.ErrRemote, errors.New("x"), nil} {
		if client.Retryable(err) {
			t.Errorf("Retryable(%v) = true", err)
		}
	}
}

// TestClassifyTable: Classify returns the class of the wire.Refusals row
// whose sentinel an error wraps, and permanent for everything the table
// does not name — ErrRemote alone, transport failures, nil.
func TestClassifyTable(t *testing.T) {
	for _, r := range wire.Refusals {
		for _, err := range []error{r.Err, fmt.Errorf("w: %w", r.Err)} {
			if got := client.Classify(err); got != r.Class {
				t.Errorf("Classify(%v) = %v, want %v", err, got, r.Class)
			}
		}
	}
	for _, err := range []error{client.ErrRemote, errors.New("transport: broken pipe"), nil} {
		if got := client.Classify(err); got != wire.ClassPermanent {
			t.Errorf("Classify(%v) = %v, want permanent", err, got)
		}
	}
}
