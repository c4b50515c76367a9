package matrix

import (
	"math"
	"math/rand"
	"testing"
)

// The in-place kernels promise bitwise equality with their allocating
// counterparts — the QBD solvers lean on that to keep sweep artifacts
// byte-identical. These property tests hammer the promise on randomized
// shapes, densities (exact zeros exercise the skip paths, including the
// mixed-zero panel splits), and magnitudes.

func randDense(rng *rand.Rand, rows, cols int, density float64) *Dense {
	m := New(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() >= density {
				continue // exact zero
			}
			v := (rng.Float64() - 0.5) * math.Ldexp(1, rng.Intn(20)-10)
			m.Set(i, j, v)
		}
	}
	return m
}

func bitwiseEqual(t *testing.T, ctx string, got, want *Dense) {
	t.Helper()
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		t.Fatalf("%s: shape %dx%d, want %dx%d", ctx, got.Rows(), got.Cols(), want.Rows(), want.Cols())
	}
	for i := 0; i < want.Rows(); i++ {
		for j := 0; j < want.Cols(); j++ {
			g, w := got.At(i, j), want.At(i, j)
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: [%d,%d] = %x, want %x (values %g vs %g)",
					ctx, i, j, math.Float64bits(g), math.Float64bits(w), g, w)
			}
		}
	}
}

func TestKernelsBitwiseEqualAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		m := 1 + rng.Intn(21)
		k := 1 + rng.Intn(21)
		n := 1 + rng.Intn(21)
		density := [...]float64{0.1, 0.35, 0.7, 1.0}[rng.Intn(4)]
		a := randDense(rng, m, k, density)
		b := randDense(rng, k, n, density)

		bitwiseEqual(t, "MulTo", MulTo(New(m, n), a, b), Mul(a, b))

		c := randDense(rng, m, n, density)
		d := randDense(rng, m, n, density)
		bitwiseEqual(t, "AddTo", AddTo(New(m, n), c, d), Sum(c, d))
		bitwiseEqual(t, "AddTo aliased", AddTo(c.Clone(), c, d), Sum(c, d))
		bitwiseEqual(t, "DiffTo", DiffTo(New(m, n), c, d), Diff(c, d))
		bitwiseEqual(t, "DiffTo aliased", DiffTo(d.Clone(), c, d), Diff(c, d))
		s := (rng.Float64() - 0.5) * 8
		bitwiseEqual(t, "ScaledTo", ScaledTo(New(m, n), s, c), Scaled(s, c))
		bitwiseEqual(t, "ScaledTo aliased", ScaledTo(c.Clone(), s, c), Scaled(s, c))

		if got, want := MaxAbsDiff(c, d), Diff(c, d).MaxAbs(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("MaxAbsDiff = %g, want %g", got, want)
		}
		bitwiseEqual(t, "TransposeTo", TransposeTo(New(n, k), b.Clone()), b.Transpose())
	}
}

func TestAccumMulToEqualsSumOfMul(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 40; trial++ {
		m := 1 + rng.Intn(17)
		k := 1 + rng.Intn(17)
		n := 1 + rng.Intn(17)
		a := randDense(rng, m, k, 0.8)
		b := randDense(rng, k, n, 0.8)
		// AccumMulTo starting from zero must match MulTo exactly: the
		// accumulation order per element is identical.
		acc := New(m, n)
		AccumMulTo(acc, a, b)
		bitwiseEqual(t, "AccumMulTo from zero", acc, MulTo(New(m, n), a, b))
	}
}

func TestLUReuseBitwiseEqualFreshSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	lu := NewLU(0)
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(24)
		a := randDense(rng, n, n, 1.0)
		for i := 0; i < n; i++ { // diagonally dominate so Reset succeeds
			a.Set(i, i, a.At(i, i)+float64(n)+1)
		}
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = rng.Float64() - 0.5
		}

		fresh, err := Factorize(a)
		if err != nil {
			t.Fatalf("Factorize: %v", err)
		}
		if err := lu.Reset(a); err != nil { // reused across trials and orders
			t.Fatalf("Reset: %v", err)
		}

		want := fresh.SolveVec(rhs)
		got := make([]float64, n)
		lu.SolveVecTo(got, rhs)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("SolveVecTo[%d] = %g, want %g", i, got[i], want[i])
			}
		}

		wantInv, err := Inverse(a)
		if err != nil {
			t.Fatalf("Inverse: %v", err)
		}
		bitwiseEqual(t, "InverseTo (reused LU)", lu.InverseTo(New(n, n)), wantInv)
	}
}

// TestInverseToBitwiseEqualColumnSolves pins InverseTo's stated
// contract directly: the interleaved 8-column (and 4-column, and
// scalar-tail) substitution must reproduce the one-column SolveVecTo
// loop bit for bit. Orders straddle every group boundary so the 8-wide
// kernels, the 4-wide interleave and the scalar tail all run.
func TestInverseToBitwiseEqualColumnSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 11, 12, 13, 15, 16, 20, 24, 29} {
		for trial := 0; trial < 4; trial++ {
			a := randDense(rng, n, n, 1.0)
			for i := 0; i < n; i++ { // diagonally dominate so Reset succeeds
				a.Set(i, i, a.At(i, i)+float64(n)+1)
			}
			f, err := Factorize(a)
			if err != nil {
				t.Fatalf("n=%d: Factorize: %v", n, err)
			}
			want := New(n, n)
			col := make([]float64, n)
			x := make([]float64, n)
			for j := 0; j < n; j++ {
				col[j] = 1
				f.SolveVecTo(x, col)
				col[j] = 0
				for i, v := range x {
					want.Set(i, j, v)
				}
			}
			bitwiseEqual(t, "InverseTo vs column solves", f.InverseTo(New(n, n)), want)
		}
	}
}

func TestCSRProductsBitwiseEqualDense(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 60; trial++ {
		m := 1 + rng.Intn(21)
		k := 1 + rng.Intn(21)
		n := 1 + rng.Intn(21)
		density := [...]float64{0.05, 0.15, 0.25, 0.6}[rng.Intn(4)]
		sp := randDense(rng, m, k, density)
		dn := randDense(rng, k, n, 0.9)
		s := FromDense(sp)

		bitwiseEqual(t, "CSR×dense", s.MulDense(dn), Mul(sp, dn))
		bitwiseEqual(t, "CSR×dense To", s.MulDenseTo(New(m, n), dn), Mul(sp, dn))

		left := randDense(rng, n, m, 0.9)
		bitwiseEqual(t, "dense×CSR", MulCSR(left, s), Mul(left, sp))
		bitwiseEqual(t, "dense×CSR To", MulCSRTo(New(n, k), left, s), Mul(left, sp))

		back := s.ToDense()
		bitwiseEqual(t, "FromDense/ToDense round trip", back, sp)
	}
}

func TestAxpyPanel8MatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 80; trial++ {
		n := 1 + rng.Intn(33) // odd/pair/quad tails all hit
		ldb := n + rng.Intn(4)
		b := make([]float64, 8*ldb)
		for i := range b {
			b[i] = (rng.Float64() - 0.5) * math.Ldexp(1, rng.Intn(20)-10)
		}
		var pa [8]float64
		for i := range pa {
			pa[i] = rng.Float64() - 0.5
		}
		ci := make([]float64, n)
		for i := range ci {
			ci[i] = rng.Float64() - 0.5
		}
		want := append([]float64(nil), ci...)
		axpyPanel8Go(want, b, ldb, &pa)
		axpyPanel8(ci, b, ldb, &pa) // AVX2 when the CPU has it, else the Go loop
		for i := range ci {
			if math.Float64bits(ci[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d ldb=%d: [%d] = %x, want %x", n, ldb, i,
					math.Float64bits(ci[i]), math.Float64bits(want[i]))
			}
		}
	}
}
