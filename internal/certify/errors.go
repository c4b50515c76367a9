// Package certify is the solution-certification layer of the analytic
// pipeline: every matrix-geometric solve is verified post-hoc against the
// invariants its answer must satisfy (fixed-point residual, sp(R) < 1,
// probability-vector nonnegativity and normalization, boundary balance,
// finiteness), and the outcome travels with the result as a Certificate.
// Failures are reported through a typed taxonomy so callers — the
// fixed-point driver, the sweep harness, the CLIs — can distinguish
// configuration mistakes from numeric breakdowns and react (fall back to
// simulation, or fail with the right status) instead of parsing error
// strings.
package certify

import (
	"errors"
	"fmt"
)

// The failure taxonomy. Every error produced by the solver pipeline wraps
// exactly one of these sentinels (via Failure), so callers classify with
// errors.Is and never by message text.
var (
	// ErrNotConverged: an iterative method exhausted its budget, or a
	// result's fixed-point residual exceeds its certification tolerance.
	ErrNotConverged = errors.New("certify: iteration did not converge")
	// ErrSingularBoundary: the finite boundary system is (numerically)
	// singular or its balance equations are violated by the solution.
	ErrSingularBoundary = errors.New("certify: boundary system singular or unbalanced")
	// ErrNumericContaminated: NaN/Inf contamination, lost probability
	// mass, or negative stationary entries beyond roundoff.
	ErrNumericContaminated = errors.New("certify: result contaminated (NaN/Inf, lost mass, or negative probability)")
	// ErrUnstableClass: the class fails the drift condition (sp(R) ≥ 1);
	// no stationary distribution exists.
	ErrUnstableClass = errors.New("certify: class is not positive recurrent")
	// ErrConfig: the model or spec itself is invalid — no amount of
	// retrying or degrading can help.
	ErrConfig = errors.New("certify: invalid configuration")
	// ErrDeadline: the solve was interrupted mid-iteration by its
	// deadline or the caller's cancellation. The partial iterate is
	// discarded — a deadline verdict says nothing about the answer, only
	// that the request's time budget ran out first. Failure.Iterations
	// records the partial progress at the interrupt.
	ErrDeadline = errors.New("certify: solve interrupted by deadline or cancellation")
	// ErrDisagreement: two independent engines (the analytic solver and
	// the discrete-event simulator) produced answers for the same
	// scenario that cannot both be right — the analytic point fell
	// outside the simulator's tolerance-widened confidence interval, or a
	// metamorphic invariant that needs no oracle (monotonicity,
	// utilization law, stability consistency, scale equivalence) broke.
	// Unlike the other kinds it does not indict one computation: it says
	// the model build, the solver, or the simulator is wrong somewhere,
	// and a certificate alone could not have caught it. Raised by
	// internal/xcheck, never by the solver pipeline itself.
	ErrDisagreement = errors.New("certify: analytic and simulation results disagree")
)

// kinds, in classification-priority order: deadline trumps everything —
// a solve killed mid-iteration reports why it died, not what the torn
// iterate looked like — then contamination and config trump the softer
// kinds when an error chain carries several.
var kinds = []error{ErrDeadline, ErrConfig, ErrDisagreement, ErrNumericContaminated, ErrSingularBoundary, ErrUnstableClass, ErrNotConverged}

// Failure is a taxonomy error with diagnostics. Kind is one of the
// package sentinels; Err is the underlying cause (possibly an
// errors.Join of every ladder rung's failure). errors.Is sees both.
type Failure struct {
	Kind       error
	Stage      string  // pipeline stage, e.g. "qbd.rmatrix" or "core.class[2]"
	Iterations int     // iterations spent before giving up, when known
	Residual   float64 // certification residual that failed, when known
	Err        error
}

func (f *Failure) Error() string {
	msg := f.Kind.Error()
	if f.Stage != "" {
		msg += " at " + f.Stage
	}
	if f.Iterations > 0 {
		msg += fmt.Sprintf(" after %d iterations", f.Iterations)
	}
	if f.Residual > 0 {
		msg += fmt.Sprintf(" (residual %.3g)", f.Residual)
	}
	if f.Err != nil {
		msg += ": " + f.Err.Error()
	}
	return msg
}

// Unwrap exposes both the taxonomy sentinel and the underlying cause to
// errors.Is/As.
func (f *Failure) Unwrap() []error {
	if f.Err == nil {
		return []error{f.Kind}
	}
	return []error{f.Kind, f.Err}
}

// Classify returns the taxonomy sentinel err belongs to, or def when err
// carries no kind (e.g. a raw error from outside the pipeline).
func Classify(err, def error) error {
	for _, k := range kinds {
		if errors.Is(err, k) {
			return k
		}
	}
	return def
}

// KindLabel renders err's taxonomy kind as a short manifest-friendly
// token: "deadline", "config", "disagreement", "numeric",
// "singular-boundary", "unstable", "not-converged", "error" (untyped),
// or "" for nil.
func KindLabel(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrDeadline):
		return "deadline"
	case errors.Is(err, ErrConfig):
		return "config"
	case errors.Is(err, ErrDisagreement):
		return "disagreement"
	case errors.Is(err, ErrNumericContaminated):
		return "numeric"
	case errors.Is(err, ErrSingularBoundary):
		return "singular-boundary"
	case errors.Is(err, ErrUnstableClass):
		return "unstable"
	case errors.Is(err, ErrNotConverged):
		return "not-converged"
	}
	return "error"
}
