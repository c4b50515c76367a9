package core

import (
	"errors"
	"testing"

	"repro/internal/certify"
	"repro/internal/certify/faultinject"
)

// TestSolveAttachesClassCertificates: every stable class of a healthy
// solve carries its QBD solve's verified certificate.
func TestSolveAttachesClassCertificates(t *testing.T) {
	m := paperModel(0.4, [4]float64{0.5, 1, 2, 4}, 1, 0.01)
	res, err := Solve(m, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for p, cr := range res.Classes {
		if !cr.Stable {
			continue
		}
		if cr.Cert == nil {
			t.Fatalf("class %d missing certificate", p)
		}
		if verr := cr.Cert.Verify(); verr != nil {
			t.Fatalf("class %d certificate does not verify: %v", p, verr)
		}
	}
}

// TestClassFailureFailsSolve: Theorem 4.3 couples the classes, so one
// class that cannot be solved fails the whole solve. The error is the
// class's typed failure — its stage names the class, its kind and cause
// survive — and never reads as instability.
func TestClassFailureFailsSolve(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	m := paperModel(0.4, [4]float64{0.5, 1, 2, 4}, 1, 0.01)
	for _, tc := range []struct {
		injected error
		kind     error
	}{
		{errors.New("injected class failure"), certify.ErrNumericContaminated},
		{&certify.Failure{Kind: certify.ErrSingularBoundary, Stage: "test"}, certify.ErrSingularBoundary},
	} {
		faultinject.Arm("core.class", func(p any) error {
			if p.(int) == 1 {
				return tc.injected
			}
			return nil
		})
		res, err := Solve(m, SolveOptions{})
		if res != nil || err == nil {
			t.Fatalf("one-class failure → result %v, error %v; want the failure alone", res, err)
		}
		var f *certify.Failure
		if !errors.As(err, &f) || f.Stage != "core.class[1]" {
			t.Fatalf("failure %v: want stage core.class[1]", err)
		}
		if !errors.Is(err, tc.kind) || !errors.Is(err, tc.injected) || errors.Is(err, ErrAllUnstable) {
			t.Fatalf("failure %v lost its kind %v or cause, or reads as instability", err, tc.kind)
		}
	}
}

// TestSolveAllClassesFailedTyped: when every class fails with a typed
// error the solve reports the first class's failure with its kind, not
// ErrAllUnstable.
func TestSolveAllClassesFailedTyped(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	faultinject.Arm("core.class", func(any) error {
		return &certify.Failure{Kind: certify.ErrNotConverged, Stage: "test"}
	})
	m := paperModel(0.4, [4]float64{0.5, 1, 2, 4}, 1, 0.01)
	_, err := Solve(m, SolveOptions{})
	if err == nil {
		t.Fatal("all-failed solve returned nil error")
	}
	if errors.Is(err, ErrAllUnstable) {
		t.Fatal("typed failures misreported as instability")
	}
	var f *certify.Failure
	if !errors.Is(err, certify.ErrNotConverged) || !errors.As(err, &f) || f.Stage != "core.class[0]" {
		t.Fatalf("failure %v: want class 0's, kind not-converged", err)
	}
}

// TestSolveResultInjection: the core.result fault point propagates its
// error with the (otherwise complete) result attached.
func TestSolveResultInjection(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	faultinject.ArmOnce("core.result", func(any) error {
		return &certify.Failure{Kind: certify.ErrNotConverged, Stage: "test.inject"}
	})
	m := paperModel(0.4, [4]float64{0.5, 1, 2, 4}, 1, 0.01)
	if _, err := Solve(m, SolveOptions{}); !errors.Is(err, certify.ErrNotConverged) {
		t.Fatalf("injected result failure → %v", err)
	}
	// Hook disarmed: the next solve is healthy again.
	if _, err := Solve(m, SolveOptions{}); err != nil {
		t.Fatalf("solve after one-shot injection: %v", err)
	}
}
