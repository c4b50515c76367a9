package qbd

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/certify"
	"repro/internal/matrix"
)

// reflectedProcess closes repeating blocks a0, a1, a2 with one boundary
// level that cannot go down: its down transitions stay in level 0 as
// phase changes.
func reflectedProcess(a0, a1, a2 *matrix.Dense) *Process {
	return &Process{
		Local: []*matrix.Dense{matrix.Sum(a1, a2)},
		Up:    []*matrix.Dense{a0},
		Down:  []*matrix.Dense{nil, a2},
		A0:    matrix.Op(a0), A1: matrix.Op(a1), A2: matrix.Op(a2),
	}
}

// closeGenerator sets a1's diagonal so that every row of a0 + a1 + a2
// sums to zero.
func closeGenerator(a0, a1, a2 *matrix.Dense) {
	for i := 0; i < a1.Rows(); i++ {
		var row float64
		for j := 0; j < a1.Cols(); j++ {
			row += a0.At(i, j) + a1.At(i, j) + a2.At(i, j)
		}
		a1.Add(i, i, -row)
	}
}

// TestExactlyCriticalFailsHonestly: five 2×2 generators, in the certify
// fuzzers' argument order (a00,a01,a10,a11, d00,d01,d10,d11, u0,u1),
// whose up and down drift rates are equal in exact arithmetic and an
// ulp apart once rounded. Such a chain is null recurrent: Solve must
// call it unstable rather than certify a stationary solution, and the
// raw entry point, whose logarithmic reduction stops on a NaN-blind
// sup-norm test, must report the contaminated R as a typed failure
// instead of returning it.
func TestExactlyCriticalFailsHonestly(t *testing.T) {
	for i, in := range [][10]float64{
		{2, 0, 0, 17, 18, 20, 0, 1, 2.5, 10},
		{24, 28, 46, 2, 76, 1, 0, 1, 46, 95},
		{0.2857142857142857, 6, 52, 28, 2, 26, 0, 4, 10, 95},
		{53, 28, 0, 2, 45, 1, 85, 1, 46, 95},
		{78, 0, 0, 2, 1, 1, 45, 71, 29, 0},
	} {
		a0 := matrix.NewFromRows([][]float64{{in[0], in[1]}, {in[2], in[3]}})
		a2 := matrix.NewFromRows([][]float64{{in[4], in[5]}, {in[6], in[7]}})
		a1 := matrix.NewFromRows([][]float64{{0, in[8]}, {in[9], 0}})
		closeGenerator(a0, a1, a2)
		if _, err := Solve(reflectedProcess(a0, a1, a2), RMatrixOptions{}); !errors.Is(err, ErrUnstable) {
			t.Errorf("case %d: Solve error %v, want ErrUnstable", i, err)
		}
		r, err := RMatrix(a0, a1, a2, RMatrixOptions{})
		if !errors.Is(err, certify.ErrNumericContaminated) {
			t.Errorf("case %d: RMatrix returned R %v, error %v; want ErrNumericContaminated", i, r, err)
		}
	}
}

// TestPropertyFirstRungAcceptsEveryStableSolve: logarithmic reduction is
// the ladder's only classical rung, so it has to accept every real
// solve. Over seeded random processes of order 2–8 — exact zeros and
// rates spanning seven decades in A0, A2 and A1's off-diagonal, A0
// scaled toward loads from 0.3 to 0.9999 by a crude unweighted drift
// estimate, so some draws overshoot into instability — every process
// Solve accepts must carry the one-entry path "logreduction: ok", and
// every other one must be ErrUnstable. Draws whose phase process is
// reducible have no drift verdict and are skipped.
func TestPropertyFirstRungAcceptsEveryStableSolve(t *testing.T) {
	const draws = 20000
	rng := rand.New(rand.NewSource(2026))
	rate := func() float64 {
		if rng.Intn(4) == 0 {
			return 0
		}
		return math.Pow(10, -3+7*rng.Float64())
	}
	var accepted, unstable, reducible int
	for d := 0; d < draws; d++ {
		n := 2 + rng.Intn(7)
		a0, a1, a2 := matrix.New(n, n), matrix.New(n, n), matrix.New(n, n)
		var up, down float64
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a0.Set(i, j, rate())
				a2.Set(i, j, rate())
				if i != j {
					a1.Set(i, j, rate())
				}
				up += a0.At(i, j)
				down += a2.At(i, j)
			}
		}
		// 1 − load is log-uniform on [1e-4, 0.7].
		load := 1 - math.Pow(10, math.Log10(0.7)+(-4-math.Log10(0.7))*rng.Float64())
		if up > 0 {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					a0.Set(i, j, a0.At(i, j)*load*down/up)
				}
			}
		}
		closeGenerator(a0, a1, a2)
		p := reflectedProcess(a0, a1, a2)
		if _, _, err := p.Drift(); err != nil {
			reducible++
			continue
		}
		sol, err := Solve(p, RMatrixOptions{})
		switch {
		case err == nil:
			if !slices.Equal(sol.Cert.Path, []string{"logreduction: ok"}) {
				t.Fatalf("draw %d (order %d, load %g): path %v, want [logreduction: ok]", d, n, load, sol.Cert.Path)
			}
			accepted++
		case errors.Is(err, ErrUnstable):
			unstable++
		default:
			t.Fatalf("draw %d (order %d, load %g): %v", d, n, load, err)
		}
	}
	t.Logf("%d draws: %d accepted at the first rung, %d unstable, %d reducible", draws, accepted, unstable, reducible)
	if accepted < draws/4 || unstable == 0 {
		t.Fatalf("draws cover the ladder poorly: %d accepted, %d unstable of %d", accepted, unstable, draws)
	}
}
