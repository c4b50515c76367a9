package certify

import "math"

// Tolerances are the certification thresholds. All residuals are
// relative: the R residual to the block-norm scale ‖A₀‖+‖A₁‖+‖A₂‖, the
// balance residual to the generator's rate scale.
type Tolerances struct {
	// Residual bounds ‖A₀ + R·A₁ + R²·A₂‖∞ / (‖A₀‖∞+‖A₁‖∞+‖A₂‖∞).
	Residual float64 `json:"residual"`
	// Mass bounds |Σπ − 1| and the most negative stationary entry.
	Mass float64 `json:"mass"`
	// Balance bounds the boundary balance-equation residual relative to
	// the generator's rate scale.
	Balance float64 `json:"balance"`
}

// DefaultTolerances are deliberately loose relative to the solvers'
// iteration tolerance (1e-12): a healthy solve certifies with orders of
// magnitude to spare, while contamination, stalled iterations and
// mass-losing boundary solves are still caught.
func DefaultTolerances() Tolerances {
	return Tolerances{Residual: 1e-6, Mass: 1e-6, Balance: 1e-5}
}

// Certificate is the machine-checkable validity record attached to every
// matrix-geometric solution. Producers (internal/qbd) fill the measured
// fields; Verify/VerifyR re-derive pass/fail from them, so a consumer
// holding only the certificate can re-audit the claim.
//
// TotalMass == 0 means the boundary-level checks were not performed (an
// R-only certificate, e.g. from the ladder's rung tests); a real
// stationary solve always has mass ≈ 1.
type Certificate struct {
	// Finite is false when any entry of R or the stationary vectors is
	// NaN or ±Inf.
	Finite bool `json:"finite"`
	// Residual is the relative fixed-point residual of R.
	Residual float64 `json:"residual"`
	// SpectralRadius is a rigorous upper bound on sp(R).
	SpectralRadius float64 `json:"spectralRadius"`
	// TotalMass is the total stationary probability (boundary + geometric
	// tail); 0 when unchecked.
	TotalMass float64 `json:"totalMass,omitempty"`
	// MinEntry is the most negative stationary-vector entry (≥ 0 when
	// clean).
	MinEntry float64 `json:"minEntry,omitempty"`
	// BoundaryResidual is the relative residual of the boundary balance
	// equations.
	BoundaryResidual float64 `json:"boundaryResidual,omitempty"`
	// BoundaryCond estimates the ∞-norm condition number of the boundary
	// linear system (from its reusable LU factorization).
	BoundaryCond float64 `json:"boundaryCond,omitempty"`
	// Iterations is the total iteration count spent across the ladder
	// rungs attempted.
	Iterations int `json:"iterations,omitempty"`
	// Path records the R ladder: one "rung: outcome" entry per attempt,
	// the last being the rung that produced the result. Rungs are
	// "newton" (only where RMatrixOptions.Newton enables it) and
	// "logreduction", so a path has one or two entries.
	Path []string `json:"path,omitempty"`
	// Tol are the thresholds this certificate was judged against.
	Tol Tolerances `json:"tol"`
}

// VerifyR checks the R-matrix-level invariants only: finiteness and the
// fixed-point residual. Used to accept or reject each ladder rung's R,
// where an sp(R) ≥ 1 bound is a stability verdict (handled separately),
// not a numerical failure.
func (c *Certificate) VerifyR() error {
	if !c.Finite {
		return &Failure{Kind: ErrNumericContaminated, Stage: "certificate", Err: errNonFinite}
	}
	if math.IsNaN(c.Residual) || c.Residual > c.Tol.Residual {
		return &Failure{Kind: ErrNotConverged, Stage: "certificate", Residual: c.Residual}
	}
	return nil
}

// Verify checks every invariant the certificate records: the R-level
// checks plus sp(R) < 1, probability-vector sanity and boundary balance.
// It returns nil for a fully certified solution and a typed *Failure
// naming the first violated invariant otherwise.
func (c *Certificate) Verify() error {
	if err := c.VerifyR(); err != nil {
		return err
	}
	if c.SpectralRadius >= 1 {
		return &Failure{Kind: ErrUnstableClass, Stage: "certificate", Residual: c.SpectralRadius}
	}
	if c.TotalMass != 0 { // boundary-level checks performed
		if math.Abs(c.TotalMass-1) > c.Tol.Mass || c.MinEntry < -c.Tol.Mass {
			return &Failure{Kind: ErrNumericContaminated, Stage: "certificate",
				Residual: math.Abs(c.TotalMass - 1)}
		}
		if math.IsNaN(c.BoundaryResidual) || c.BoundaryResidual > c.Tol.Balance {
			return &Failure{Kind: ErrSingularBoundary, Stage: "certificate", Residual: c.BoundaryResidual}
		}
	}
	return nil
}

var errNonFinite = errNonFiniteType{}

type errNonFiniteType struct{}

func (errNonFiniteType) Error() string { return "non-finite entries" }
