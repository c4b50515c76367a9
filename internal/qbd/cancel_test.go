package qbd

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/certify"
	"repro/internal/certify/faultinject"
)

// TestSolveCanceledContext: a context canceled before the solve starts
// aborts the very first iteration poll with a typed deadline failure —
// the ladder never descends to a second rung.
func TestSolveCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Solve(mm1(1, 2), RMatrixOptions{Ctx: ctx})
	if err == nil {
		t.Fatal("canceled solve succeeded")
	}
	if !errors.Is(err, certify.ErrDeadline) {
		t.Fatalf("error %v, want ErrDeadline", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v lost the context cause", err)
	}
	var f *certify.Failure
	if !errors.As(err, &f) || !errors.Is(f.Kind, certify.ErrDeadline) {
		t.Fatalf("failure not typed as deadline: %+v", f)
	}
}

// TestSolveDeadlineInterruptsMidIteration: with per-iteration latency
// injected through the "qbd.iter" point, a deadline shorter than the
// full solve stops the iteration at the next poll — the solver does at
// most cancelCheckInterval iterations past the deadline instead of
// finishing, and reports its partial progress. M/M/1 at ρ = 0.99999 is
// deep enough to interrupt: logarithmic reduction needs over twenty
// iterations to cover the slowly decaying tail.
func TestSolveDeadlineInterruptsMidIteration(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	p := mm1(0.99999, 1)

	// Baseline: the uninterrupted solve, counting iterations.
	var full atomic.Int64
	faultinject.Arm("qbd.iter", func(any) error { full.Add(1); return nil })
	if _, err := Solve(p, RMatrixOptions{}); err != nil {
		t.Fatal(err)
	}
	faultinject.Reset()
	if full.Load() < 20 {
		t.Fatalf("full solve only %d iterations; probe assumptions broken", full.Load())
	}

	// Interrupted: every iteration sleeps 2ms, so the 20ms deadline lands
	// around iteration 10. The hook records the first iteration that
	// finds the deadline passed.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	var fired, expiredAt atomic.Int64
	expiredAt.Store(-1)
	faultinject.Arm("qbd.iter", func(p any) error {
		fired.Add(1)
		time.Sleep(2 * time.Millisecond)
		if ctx.Err() != nil {
			expiredAt.CompareAndSwap(-1, int64(p.(int)))
		}
		return nil
	})
	_, err := Solve(p, RMatrixOptions{Ctx: ctx})
	faultinject.Reset()
	if !errors.Is(err, certify.ErrDeadline) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v, want ErrDeadline wrapping DeadlineExceeded", err)
	}
	var f *certify.Failure
	if !errors.As(err, &f) || f.Iterations <= 0 {
		t.Fatalf("failure carries no partial iteration count: %+v", f)
	}
	// The ran iterations are 0..fired-1. The deadline passed during
	// iteration expiredAt (or, if it expired between that iteration's
	// hook and its poll, during the last one), and the poll must stop the
	// solve within cancelCheckInterval iterations of it.
	last := fired.Load() - 1
	at := expiredAt.Load()
	if at < 0 {
		at = last
	}
	if last > at+cancelCheckInterval || fired.Load() >= full.Load() {
		t.Fatalf("solver ran to iteration %d after the deadline passed at iteration %d (full solve: %d)",
			last, at, full.Load())
	}
}

// TestSolveNilContextUnchanged: the default no-context path still solves
// and certifies exactly as before.
func TestSolveNilContextUnchanged(t *testing.T) {
	sol, err := Solve(mm1(1, 2), RMatrixOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sol.Cert.Verify(); err != nil {
		t.Fatal(err)
	}
}
