package hadfl

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestRunContextCancelMidRun is the cancellation acceptance check: for
// every scheme, canceling the context after the first
// progress callback stops the run within one device step/round and
// surfaces ctx.Err().
func TestRunContextCancelMidRun(t *testing.T) {
	for _, scheme := range Schemes() {
		t.Run(scheme, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			opts := fastOpts(9)
			// A budget far beyond the test's patience: only prompt
			// cancellation lets the run return in time.
			opts.TargetEpochs = 1e6
			opts.OnRound = func(RoundUpdate) { cancel() }

			done := make(chan error, 1)
			go func() {
				_, err := RunContext(ctx, scheme, opts)
				done <- err
			}()
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
			case <-time.After(30 * time.Second):
				t.Fatalf("%s did not stop after cancellation", scheme)
			}
		})
	}
}

func TestRunContextPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, scheme := range Schemes() {
		if _, err := RunContext(ctx, scheme, fastOpts(1)); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", scheme, err)
		}
	}
}

func TestRunContextDeadline(t *testing.T) {
	// A 50ms deadline expires during the mutual-negotiation warmup, so
	// this also covers the pre-round cancellation path (WarmupCtx).
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	opts := fastOpts(10)
	opts.TargetEpochs = 1e6
	start := time.Now()
	_, err := RunContext(ctx, SchemeHADFL, opts)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline honored only after %v", elapsed)
	}
}

func TestCompareContextPropagatesCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := fastOpts(11)
	opts.TargetEpochs = 1e6
	opts.OnRound = func(RoundUpdate) { cancel() }
	done := make(chan error, 1)
	go func() {
		_, err := CompareContext(ctx, opts)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("CompareContext did not stop after cancellation")
	}
}
