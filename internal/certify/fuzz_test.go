package certify_test

import (
	"math"
	"testing"

	"repro/internal/certify"
	"repro/internal/matrix"
	"repro/internal/qbd"
)

// FuzzRMatrixCertify is the certification soundness fuzz: for random
// two-phase QBD generator blocks, a solve that the certifier passes must
// be independently valid — finite, essentially nonnegative, and with a
// small fixed-point residual recomputed from scratch. A certified-but-
// invalid R is the one outcome the certification layer exists to make
// impossible.
func FuzzRMatrixCertify(f *testing.F) {
	f.Add(0.4, 0.1, 0.05, 0.3, 1.2, 0.9, 0.2, 1.1, 0.3, 0.2)
	f.Add(2.0, 0.0, 0.0, 2.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0)
	f.Add(0.01, 0.5, 0.5, 0.01, 3.0, 0.1, 0.1, 3.0, 5.0, 5.0)
	// Exactly critical generators (up = down drift in exact arithmetic,
	// an ulp apart once rounded), on which logarithmic reduction ends on
	// an all-NaN R that its sup-norm stop test, blind to NaN, accepts.
	f.Add(2.0, 0.0, 0.0, 17.0, 18.0, 20.0, 0.0, 1.0, 2.5, 10.0)
	f.Add(24.0, 28.0, 46.0, 2.0, 76.0, 1.0, 0.0, 1.0, 46.0, 95.0)
	f.Add(0.2857142857142857, 6.0, 52.0, 28.0, 2.0, 26.0, 0.0, 4.0, 10.0, 95.0)
	f.Add(53.0, 28.0, 0.0, 2.0, 45.0, 1.0, 85.0, 1.0, 46.0, 95.0)
	f.Add(78.0, 0.0, 0.0, 2.0, 1.0, 1.0, 45.0, 71.0, 29.0, 0.0)
	f.Fuzz(func(t *testing.T, a00, a01, a10, a11, d00, d01, d10, d11, u0, u1 float64) {
		clampRate := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Min(math.Abs(v), 1e3)
		}
		// Arrivals (A0), completions (A2), and local phase switching (off-
		// diagonal of A1); the A1 diagonal closes each generator row to 0.
		a0 := matrix.NewFromRows([][]float64{{clampRate(a00), clampRate(a01)}, {clampRate(a10), clampRate(a11)}})
		a2 := matrix.NewFromRows([][]float64{{clampRate(d00), clampRate(d01)}, {clampRate(d10), clampRate(d11)}})
		a1 := matrix.New(2, 2)
		a1.Set(0, 1, clampRate(u0))
		a1.Set(1, 0, clampRate(u1))
		for i := 0; i < 2; i++ {
			var row float64
			for j := 0; j < 2; j++ {
				row += a0.At(i, j) + a1.At(i, j) + a2.At(i, j)
			}
			a1.Add(i, i, -row)
		}
		if a1.At(0, 0) >= -1e-9 || a1.At(1, 1) >= -1e-9 {
			return // degenerate: no exit rate, uniformization undefined
		}

		r, err := qbd.RMatrix(a0, a1, a2, qbd.RMatrixOptions{})
		if err != nil {
			return // a typed failure is always an acceptable outcome
		}
		cert := qbd.CertifyR(r, a0, a1, a2, certify.Tolerances{})
		if cert.VerifyR() != nil {
			return // uncertified results carry no validity claim
		}
		// Certified: re-derive every claimed invariant independently.
		if !r.Finite() {
			t.Fatalf("certified R has non-finite entries: %v", r)
		}
		for i := 0; i < r.Rows(); i++ {
			for j := 0; j < r.Cols(); j++ {
				if r.At(i, j) < -1e-8 {
					t.Fatalf("certified R has negative entry (%d,%d) = %g", i, j, r.At(i, j))
				}
			}
		}
		scale := a0.InfNorm() + a1.InfNorm() + a2.InfNorm()
		if res := qbd.ResidualR(r, a0, a1, a2) / scale; res > certify.DefaultTolerances().Residual {
			t.Fatalf("certified R has relative residual %g beyond tolerance", res)
		}
	})
}

// FuzzRMatrixNewton is the Newton-rung soundness fuzz: with the Newton
// cyclic-reduction rung forced on (NewtonMinOrder lowered so the 2×2
// fuzz blocks qualify), every solve must end in exactly one of two
// states — a certified finite R, or a typed failure. A Newton attempt
// that diverges, hits a singular I−D₁ pivot, or contaminates its
// iterates with NaN must be rejected by the in-ladder certification and
// fall through to logarithmic reduction; NaN must never escape into a
// returned R, certified or not.
func FuzzRMatrixNewton(f *testing.F) {
	f.Add(0.4, 0.1, 0.05, 0.3, 1.2, 0.9, 0.2, 1.1, 0.3, 0.2)
	f.Add(2.0, 0.0, 0.0, 2.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0)
	f.Add(0.01, 0.5, 0.5, 0.01, 3.0, 0.1, 0.1, 3.0, 5.0, 5.0)
	f.Add(1e3, 1e-6, 1e-6, 1e3, 1e3, 0.0, 0.0, 1e3, 1e3, 1e3)
	// Exactly critical generators (up = down drift in exact arithmetic,
	// an ulp apart once rounded), on which logarithmic reduction ends on
	// an all-NaN R that its sup-norm stop test, blind to NaN, accepts.
	f.Add(2.0, 0.0, 0.0, 17.0, 18.0, 20.0, 0.0, 1.0, 2.5, 10.0)
	f.Add(24.0, 28.0, 46.0, 2.0, 76.0, 1.0, 0.0, 1.0, 46.0, 95.0)
	f.Add(0.2857142857142857, 6.0, 52.0, 28.0, 2.0, 26.0, 0.0, 4.0, 10.0, 95.0)
	f.Add(53.0, 28.0, 0.0, 2.0, 45.0, 1.0, 85.0, 1.0, 46.0, 95.0)
	f.Add(78.0, 0.0, 0.0, 2.0, 1.0, 1.0, 45.0, 71.0, 29.0, 0.0)
	f.Fuzz(func(t *testing.T, a00, a01, a10, a11, d00, d01, d10, d11, u0, u1 float64) {
		clampRate := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Min(math.Abs(v), 1e3)
		}
		a0 := matrix.NewFromRows([][]float64{{clampRate(a00), clampRate(a01)}, {clampRate(a10), clampRate(a11)}})
		a2 := matrix.NewFromRows([][]float64{{clampRate(d00), clampRate(d01)}, {clampRate(d10), clampRate(d11)}})
		a1 := matrix.New(2, 2)
		a1.Set(0, 1, clampRate(u0))
		a1.Set(1, 0, clampRate(u1))
		for i := 0; i < 2; i++ {
			var row float64
			for j := 0; j < 2; j++ {
				row += a0.At(i, j) + a1.At(i, j) + a2.At(i, j)
			}
			a1.Add(i, i, -row)
		}
		if a1.At(0, 0) >= -1e-9 || a1.At(1, 1) >= -1e-9 {
			return // degenerate: no exit rate, uniformization undefined
		}

		r, err := qbd.RMatrix(a0, a1, a2, qbd.RMatrixOptions{Newton: true, NewtonMinOrder: 2})
		if err != nil {
			return // typed failure: acceptable, as long as nothing leaked
		}
		if !r.Finite() {
			t.Fatalf("Newton-enabled solve returned non-finite R: %v", r)
		}
		cert := qbd.CertifyR(r, a0, a1, a2, certify.Tolerances{})
		if cert.VerifyR() != nil {
			return // uncertified results carry no validity claim
		}
		for i := 0; i < r.Rows(); i++ {
			for j := 0; j < r.Cols(); j++ {
				if r.At(i, j) < -1e-8 {
					t.Fatalf("certified Newton R has negative entry (%d,%d) = %g", i, j, r.At(i, j))
				}
			}
		}
		scale := a0.InfNorm() + a1.InfNorm() + a2.InfNorm()
		if res := qbd.ResidualR(r, a0, a1, a2) / scale; res > certify.DefaultTolerances().Residual {
			t.Fatalf("certified Newton R has relative residual %g beyond tolerance", res)
		}
	})
}
