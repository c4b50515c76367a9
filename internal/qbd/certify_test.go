package qbd

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/certify"
	"repro/internal/certify/faultinject"
	"repro/internal/matrix"
)

// TestSolveAttachesCertificate: every successful Solve carries a verified
// certificate with the boundary-level fields filled in.
func TestSolveAttachesCertificate(t *testing.T) {
	sol, err := Solve(mm1(1, 2), RMatrixOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c := sol.Cert
	if c == nil {
		t.Fatal("no certificate attached")
	}
	if err := c.Verify(); err != nil {
		t.Fatalf("attached certificate does not verify: %v", err)
	}
	if !c.Finite || c.Residual > 1e-9 || c.SpectralRadius >= 1 {
		t.Fatalf("R-level fields implausible: %+v", c)
	}
	if math.Abs(c.TotalMass-1) > 1e-9 {
		t.Fatalf("total mass %g, want 1", c.TotalMass)
	}
	if c.BoundaryResidual > 1e-9 {
		t.Fatalf("boundary residual %g", c.BoundaryResidual)
	}
	if c.BoundaryCond <= 0 {
		t.Fatalf("boundary condition estimate %g, want > 0", c.BoundaryCond)
	}
	if len(c.Path) == 0 || !strings.Contains(c.Path[len(c.Path)-1], "ok") {
		t.Fatalf("ladder path %v, want trailing ok", c.Path)
	}
	if c.Iterations <= 0 {
		t.Fatalf("iterations %d, want > 0", c.Iterations)
	}
}

// TestLadderRecoversFromInjectedNaN: a NaN planted in the first rung's R
// must be caught by certification and cured by the next rung, with the
// certificate's path recording both. The Newton rung is enabled at
// order 1 so that the planted NaN hits it and logarithmic reduction,
// the ladder's last rung, recovers.
func TestLadderRecoversFromInjectedNaN(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	faultinject.ArmOnce("qbd.R", func(p any) error {
		p.(*matrix.Dense).Set(0, 0, math.NaN())
		return nil
	})
	sol, err := Solve(mm1(1, 2), RMatrixOptions{Newton: true, NewtonMinOrder: 1})
	if err != nil {
		t.Fatalf("ladder did not recover: %v", err)
	}
	path := sol.Cert.Path
	if len(path) != 2 {
		t.Fatalf("path %v, want two rungs", path)
	}
	if path[0] != "newton: uncertified" {
		t.Fatalf("path[0] = %q, want newton: uncertified", path[0])
	}
	if path[1] != "logreduction: ok" {
		t.Fatalf("path[1] = %q, want logreduction: ok", path[1])
	}
	if err := sol.Cert.Verify(); err != nil {
		t.Fatalf("recovered solution fails certification: %v", err)
	}
	// And the result is still the right answer: M/M/1 R = ρ.
	if got := sol.R.At(0, 0); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("recovered R = %g, want 0.5", got)
	}
}

// TestRMatrixJoinsLadderErrors (satellite): when every rung fails, the
// returned error is typed and reports each rung's cause, not just the
// last one.
func TestRMatrixJoinsLadderErrors(t *testing.T) {
	p := mm1(1, 2)
	// An impossible budget: both rungs exhaust a single iteration.
	_, err := RMatrix(p.A0, p.A1, p.A2, RMatrixOptions{Tol: 1e-15, MaxIter: 1, Newton: true, NewtonMinOrder: 1})
	if err == nil {
		t.Fatal("one-iteration budget converged")
	}
	if !errors.Is(err, certify.ErrNotConverged) {
		t.Fatalf("error %v is not ErrNotConverged", err)
	}
	if !errors.Is(err, matrix.ErrNoConverge) {
		t.Fatalf("error %v lost the underlying cause", err)
	}
	msg := err.Error()
	for _, rung := range []string{"newton", "logreduction"} {
		if !strings.Contains(msg, rung) {
			t.Fatalf("error %q does not name rung %q", msg, rung)
		}
	}
	var f *certify.Failure
	if !errors.As(err, &f) || f.Stage != "qbd.rmatrix" || f.Iterations == 0 {
		t.Fatalf("failure diagnostics missing: %+v", f)
	}
}

// TestSolveConfigErrorsTyped: validation failures classify as ErrConfig.
func TestSolveConfigErrorsTyped(t *testing.T) {
	p := mm1(1, 2)
	p.A0.Set(0, 0, -1) // negative rate: invalid generator
	_, err := Solve(p, RMatrixOptions{})
	if !errors.Is(err, certify.ErrConfig) {
		t.Fatalf("invalid process → %v, want ErrConfig", err)
	}
}

// TestCertifyRMatchesResidualR: the workspace certifier must agree with
// the allocation-free reference residual bit for bit.
func TestCertifyRMatchesResidualR(t *testing.T) {
	p := mErlang2_1(0.7, 1)
	r, err := RMatrix(p.A0, p.A1, p.A2, RMatrixOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cert := CertifyR(r, p.A0, p.A1, p.A2, certify.Tolerances{})
	scale := p.A0.InfNorm() + p.A1.InfNorm() + p.A2.InfNorm()
	if want := ResidualR(r, p.A0, p.A1, p.A2) / scale; cert.Residual != want {
		t.Fatalf("certifier residual %g != reference %g", cert.Residual, want)
	}
	if err := cert.VerifyR(); err != nil {
		t.Fatal(err)
	}
}
