package serve

import (
	"context"
	"errors"
	"net/http"
	"time"

	"repro/internal/certify"
)

// errDraining is returned by dispatch when the shard pool is shutting
// down; it maps to 503 so clients know to retry elsewhere.
var errDraining = errors.New("serve: draining, not accepting new solves")

// kindStatus maps every certify failure kind to its HTTP status, in the
// taxonomy's classification-priority order (config and contamination
// trump the softer kinds when an error chain carries several, matching
// certify.Classify). The serve_test exhaustiveness test locks this table
// to the full KindLabel list, so adding a sixth sentinel to certify
// without deciding its status here fails CI.
var kindStatus = []struct {
	Kind   error
	Label  string // certify.KindLabel of Kind, asserted by test
	Status int
}{
	// The solve was interrupted mid-iteration by its deadline or the
	// client's disconnect: the gateway (this daemon) timed the work out.
	{certify.ErrDeadline, "deadline", http.StatusGatewayTimeout},
	// The model or request itself is invalid: client error.
	{certify.ErrConfig, "config", http.StatusBadRequest},
	// The analytic answer contradicts the simulator (raised by the
	// internal/xcheck oracle, not the serving path): a correctness
	// breakdown on our side, not the client's.
	{certify.ErrDisagreement, "disagreement", http.StatusInternalServerError},
	// NaN/Inf contamination or lost mass: the solver broke, not the
	// request.
	{certify.ErrNumericContaminated, "numeric", http.StatusInternalServerError},
	// A singular boundary system is likewise a numeric breakdown.
	{certify.ErrSingularBoundary, "singular-boundary", http.StatusInternalServerError},
	// The model is well-formed but this workload admits no stationary
	// answer / no certified answer at this budget: the request is
	// unprocessable as posed, a bigger budget or different load may cure
	// it.
	{certify.ErrUnstableClass, "unstable", http.StatusUnprocessableEntity},
	{certify.ErrNotConverged, "not-converged", http.StatusUnprocessableEntity},
}

// statusFor maps a solver-path error to its HTTP status: deadline and
// cancellation first (they are transport verdicts, whatever stage they
// interrupted), then the serve-layer conditions (drain, shard panic),
// then the failure taxonomy, then 500 for anything untyped.
func statusFor(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	case errors.Is(err, errDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, errShardPanic):
		return http.StatusInternalServerError
	}
	for _, e := range kindStatus {
		if errors.Is(err, e.Kind) {
			return e.Status
		}
	}
	return http.StatusInternalServerError
}

// errorLabel names err for the JSON error body's kind field: the
// serve-layer conditions get their own tokens so a client can tell a
// drain (retry elsewhere now) from a contained panic; everything else
// defers to the certify taxonomy.
func errorLabel(err error) string {
	switch {
	case errors.Is(err, errDraining):
		return "draining"
	case errors.Is(err, errShardPanic):
		return "panic"
	}
	return certify.KindLabel(err)
}

// retryAfter is the client-facing retry hint of the one typed 503 that
// carries one, a drain: one second, the instant another instance (or a
// restarted this one) could answer. Zero means no hint.
func retryAfter(err error) time.Duration {
	if errors.Is(err, errDraining) {
		return time.Second
	}
	return 0
}
