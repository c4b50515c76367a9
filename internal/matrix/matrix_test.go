package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("dims = %dx%d, want 3x4", m.Rows(), m.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("At(%d,%d) = %g, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestSetAtAdd(t *testing.T) {
	m := New(2, 2)
	m.Set(0, 1, 3.5)
	m.Add(0, 1, 1.5)
	if got := m.At(0, 1); got != 5 {
		t.Fatalf("At(0,1) = %g, want 5", got)
	}
}

func TestNewFromRows(t *testing.T) {
	m := NewFromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(1, 0) != 3 {
		t.Fatalf("At(1,0) = %g, want 3", m.At(1, 0))
	}
}

func TestNewFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	NewFromRows([][]float64{{1, 2}, {3}})
}

func TestIdentity(t *testing.T) {
	id := Identity(3)
	m := NewFromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	if !EqualApprox(Mul(id, m), m, 0) || !EqualApprox(Mul(m, id), m, 0) {
		t.Fatal("identity is not multiplicative identity")
	}
}

func TestDiag(t *testing.T) {
	d := Diag([]float64{2, 3})
	want := NewFromRows([][]float64{{2, 0}, {0, 3}})
	if !EqualApprox(d, want, 0) {
		t.Fatalf("Diag = %v, want %v", d, want)
	}
}

func TestMul(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {3, 4}})
	b := NewFromRows([][]float64{{5, 6}, {7, 8}})
	want := NewFromRows([][]float64{{19, 22}, {43, 50}})
	if got := Mul(a, b); !EqualApprox(got, want, 1e-15) {
		t.Fatalf("Mul = %v, want %v", got, want)
	}
}

func TestMulNonSquare(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2, 3}})     // 1x3
	b := NewFromRows([][]float64{{1}, {2}, {3}}) // 3x1
	if got := Mul(a, b).At(0, 0); got != 14 {
		t.Fatalf("Mul = %g, want 14", got)
	}
	if got := Mul(b, a); got.Rows() != 3 || got.Cols() != 3 || got.At(2, 2) != 9 {
		t.Fatalf("outer product wrong: %v", got)
	}
}

func TestMulVecAndVecMul(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {3, 4}})
	y := MulVec(a, []float64{1, 1})
	if y[0] != 3 || y[1] != 7 {
		t.Fatalf("MulVec = %v, want [3 7]", y)
	}
	z := VecMul([]float64{1, 1}, a)
	if z[0] != 4 || z[1] != 6 {
		t.Fatalf("VecMul = %v, want [4 6]", z)
	}
}

func TestTranspose(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.Transpose()
	if at.Rows() != 3 || at.Cols() != 2 || at.At(2, 0) != 3 || at.At(0, 1) != 4 {
		t.Fatalf("Transpose wrong: %v", at)
	}
}

func TestSumDiffScaled(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {3, 4}})
	b := NewFromRows([][]float64{{4, 3}, {2, 1}})
	if got := Sum(a, b); got.At(0, 0) != 5 || got.At(1, 1) != 5 {
		t.Fatalf("Sum wrong: %v", got)
	}
	if got := Diff(a, b); got.At(0, 0) != -3 || got.At(1, 0) != 1 {
		t.Fatalf("Diff wrong: %v", got)
	}
	if got := Scaled(2, a); got.At(1, 1) != 8 {
		t.Fatalf("Scaled wrong: %v", got)
	}
}

func TestAccumScaled(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {3, 4}})
	b := Identity(2)
	a.AccumScaled(10, b)
	if a.At(0, 0) != 11 || a.At(1, 1) != 14 || a.At(0, 1) != 2 {
		t.Fatalf("AccumScaled wrong: %v", a)
	}
}

func TestRowColRowSums(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {3, 4}})
	if r := a.Row(1); r[0] != 3 || r[1] != 4 {
		t.Fatalf("Row wrong: %v", r)
	}
	if c := a.Col(0); c[0] != 1 || c[1] != 3 {
		t.Fatalf("Col wrong: %v", c)
	}
	if s := a.RowSums(); s[0] != 3 || s[1] != 7 {
		t.Fatalf("RowSums wrong: %v", s)
	}
}

func TestCloneIndependent(t *testing.T) {
	a := Identity(2)
	b := a.Clone()
	b.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestEmbedSlice(t *testing.T) {
	m := New(4, 4)
	m.Embed(1, 2, NewFromRows([][]float64{{7, 8}, {9, 10}}))
	if m.At(1, 2) != 7 || m.At(2, 3) != 10 || m.At(0, 0) != 0 {
		t.Fatalf("Embed wrong: %v", m)
	}
	s := m.Slice(1, 3, 2, 4)
	if s.Rows() != 2 || s.Cols() != 2 || s.At(0, 0) != 7 || s.At(1, 1) != 10 {
		t.Fatalf("Slice wrong: %v", s)
	}
}

func TestNorms(t *testing.T) {
	a := NewFromRows([][]float64{{-5, 1}, {2, 2}})
	if a.MaxAbs() != 5 {
		t.Fatalf("MaxAbs = %g, want 5", a.MaxAbs())
	}
	if a.InfNorm() != 6 {
		t.Fatalf("InfNorm = %g, want 6", a.InfNorm())
	}
}

func TestLUSolveKnown(t *testing.T) {
	a := NewFromRows([][]float64{{2, 1, -1}, {-3, -1, 2}, {-2, 1, 2}})
	b := []float64{8, -11, -3}
	x, err := SolveVec(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if !almostEq(x[i], want[i], 1e-12) {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}

func TestLUSingular(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := SolveVec(a, []float64{1, 1}); err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestLUDet(t *testing.T) {
	a := NewFromRows([][]float64{{3, 8}, {4, 6}})
	f, err := Factorize(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(f.Det(), -14, 1e-12) {
		t.Fatalf("Det = %g, want -14", f.Det())
	}
}

func TestInverse(t *testing.T) {
	a := NewFromRows([][]float64{{4, 7}, {2, 6}})
	inv, err := Inverse(a)
	if err != nil {
		t.Fatal(err)
	}
	if !EqualApprox(Mul(a, inv), Identity(2), 1e-12) {
		t.Fatalf("A·A⁻¹ != I: %v", Mul(a, inv))
	}
}

func TestSolveTransposedVec(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {3, 4}})
	// solve xᵀ A = bᵀ with b = [5, 11]ᵀ ⇒ x = [... ] check by multiplication
	x, err := SolveTransposedVec(a, []float64{5, 11})
	if err != nil {
		t.Fatal(err)
	}
	got := VecMul(x, a)
	if !almostEq(got[0], 5, 1e-12) || !almostEq(got[1], 11, 1e-12) {
		t.Fatalf("xᵀA = %v, want [5 11]", got)
	}
}

func TestSpectralRadiusDiagonal(t *testing.T) {
	a := Diag([]float64{0.3, 0.9, 0.5})
	r, err := SpectralRadius(a, 1e-12, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(r, 0.9, 1e-9) {
		t.Fatalf("sp = %g, want 0.9", r)
	}
}

func TestSpectralRadiusStochastic(t *testing.T) {
	// Row-stochastic matrices have spectral radius exactly 1.
	a := NewFromRows([][]float64{{0.5, 0.5}, {0.25, 0.75}})
	r, err := SpectralRadius(a, 1e-13, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(r, 1, 1e-9) {
		t.Fatalf("sp = %g, want 1", r)
	}
}

func TestSpectralRadiusZero(t *testing.T) {
	r, err := SpectralRadius(New(3, 3), 1e-12, 100)
	if err != nil || r != 0 {
		t.Fatalf("sp(0) = %g, err=%v; want 0, nil", r, err)
	}
}

func TestGeometricTailSum(t *testing.T) {
	r := Diag([]float64{0.5, 0.25})
	s, err := GeometricTailSum(r)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(s.At(0, 0), 2, 1e-12) || !almostEq(s.At(1, 1), 4.0/3.0, 1e-12) {
		t.Fatalf("tail sum wrong: %v", s)
	}
}

func TestVecHelpers(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatal("Dot wrong")
	}
	if VecSum([]float64{1, 2, 3}) != 6 {
		t.Fatal("VecSum wrong")
	}
	if e := Ones(3); e[0] != 1 || e[2] != 1 {
		t.Fatal("Ones wrong")
	}
	x := ScaleVec(2, []float64{1, 2})
	if x[1] != 4 {
		t.Fatal("ScaleVec wrong")
	}
}

func TestLUSolveTransposed(t *testing.T) {
	a := NewFromRows([][]float64{{2, 1, 0}, {1, 3, 1}, {0, 1, 4}})
	f, err := Factorize(a)
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{1, 2, 3}
	x := f.SolveTransposed(b)
	// Verify Aᵀ·x = b, i.e. xᵀ·A = bᵀ.
	got := VecMul(x, a)
	for i := range b {
		if !almostEq(got[i], b[i], 1e-12) {
			t.Fatalf("xᵀA = %v, want %v", got, b)
		}
	}
	// Agree with the explicit transpose solve.
	want, err := SolveVec(a.Transpose(), b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !almostEq(x[i], want[i], 1e-12) {
			t.Fatalf("SolveTransposed %v vs explicit %v", x, want)
		}
	}
}

func TestPropertySolveTransposedResidual(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz%6) + 1
		rng := rand.New(rand.NewSource(seed))
		a := randomNonSingular(rng, n)
		fac, err := Factorize(a)
		if err != nil {
			return false
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x := fac.SolveTransposed(b)
		r := VecMul(x, a)
		for i := range r {
			if !almostEq(r[i], b[i], 1e-8*(1+math.Abs(b[i]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestString(t *testing.T) {
	s := NewFromRows([][]float64{{1, 2}, {3, 4}}).String()
	if s != "2x2[1 2; 3 4]" {
		t.Fatalf("String = %q", s)
	}
}

func TestSpectralRadiusUpperBound(t *testing.T) {
	// Diagonal: exact.
	r := SpectralRadiusUpperBound(Diag([]float64{0.3, 0.8, 0.1}), 40)
	if !almostEq(r, 0.8, 1e-9) {
		t.Fatalf("bound = %g, want 0.8", r)
	}
	// Stochastic: exactly 1.
	p := NewFromRows([][]float64{{0.5, 0.5}, {0.25, 0.75}})
	if b := SpectralRadiusUpperBound(p, 40); !almostEq(b, 1, 1e-9) {
		t.Fatalf("bound = %g, want 1", b)
	}
	// Periodic block structure (power iteration's nemesis): a 2-cycle
	// scaled by 0.9 has spectral radius 0.9.
	c := NewFromRows([][]float64{{0, 0.9}, {0.9, 0}})
	if b := SpectralRadiusUpperBound(c, 40); !almostEq(b, 0.9, 1e-9) {
		t.Fatalf("bound = %g, want 0.9", b)
	}
	// Nilpotent: radius 0.
	nl := NewFromRows([][]float64{{0, 1}, {0, 0}})
	if b := SpectralRadiusUpperBound(nl, 40); b > 1e-6 {
		t.Fatalf("nilpotent bound = %g, want ~0", b)
	}
	if b := SpectralRadiusUpperBound(New(0, 0), 10); b != 0 {
		t.Fatalf("empty bound = %g", b)
	}
	// Always an upper bound on the power-iteration estimate.
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(5)
		a := New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.Float64())
			}
		}
		est, _ := SpectralRadius(a, 1e-10, 50000)
		if bnd := SpectralRadiusUpperBound(a, 40); bnd < est-1e-6 {
			t.Fatalf("bound %g below estimate %g", bnd, est)
		}
	}
}

func TestSpectralRadiusUpperBoundWithin(t *testing.T) {
	ws := NewWorkspace()
	// With an unreachable limit the adaptive refinement must run the full
	// squaring chain and reproduce the fixed-count bound exactly: the
	// k == maxSquarings partial is the same expression the fixed loop
	// finishes with.
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(6)
		a := New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.Float64())
			}
		}
		full := SpectralRadiusUpperBound(a, 40)
		adaptive := SpectralRadiusUpperBoundWithinWS(a, 0, 40, ws)
		if math.Float64bits(full) != math.Float64bits(adaptive) {
			t.Fatalf("limit-0 adaptive bound %g != fixed bound %g", adaptive, full)
		}
		// Every early exit is still a rigorous upper bound.
		est, _ := SpectralRadius(a, 1e-10, 50000)
		if b := SpectralRadiusUpperBoundWithinWS(a, 1, 40, ws); b >= 1 && b < est-1e-6 {
			t.Fatalf("adaptive bound %g below estimate %g", b, est)
		}
	}
	// A comfortably stable matrix exits on the free k = 0 bound: ‖a‖∞.
	d := Diag([]float64{0.3, 0.2, 0.25})
	if b := SpectralRadiusUpperBoundWithinWS(d, 1, 40, ws); b != 0.3 {
		t.Fatalf("early-exit bound = %g, want the ∞-norm 0.3", b)
	}
	// A stable matrix whose ∞-norm overshoots the limit refines until the
	// bound drops below it, and the result still dominates sp(a) = 0.9.
	c := NewFromRows([][]float64{{0, 1.8}, {0.45, 0}})
	b := SpectralRadiusUpperBoundWithinWS(c, 1, 40, ws)
	if b >= 1 || b < 0.9 {
		t.Fatalf("refined bound = %g, want in [0.9, 1)", b)
	}
	if b := SpectralRadiusUpperBoundWithinWS(New(0, 0), 1, 10, ws); b != 0 {
		t.Fatalf("empty bound = %g", b)
	}
}

func TestEqualApproxShapeMismatch(t *testing.T) {
	if EqualApprox(New(2, 2), New(3, 3), 1) {
		t.Fatal("different shapes should not be equal")
	}
}

func TestCOONNZ(t *testing.T) {
	c := NewCOO(2, 2)
	c.Add(0, 0, 1)
	c.Add(1, 1, 2)
	if c.NNZ() != 2 {
		t.Fatalf("NNZ = %d", c.NNZ())
	}
}

// randomNonSingular builds a diagonally dominant matrix, which is always
// non-singular, for property tests.
func randomNonSingular(rng *rand.Rand, n int) *Dense {
	a := New(n, n)
	for i := 0; i < n; i++ {
		var sum float64
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			v := rng.NormFloat64()
			a.Set(i, j, v)
			sum += math.Abs(v)
		}
		a.Set(i, i, sum+1+rng.Float64())
	}
	return a
}

func TestPropertySolveResidual(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz%6) + 1
		rng := rand.New(rand.NewSource(seed))
		a := randomNonSingular(rng, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := SolveVec(a, b)
		if err != nil {
			return false
		}
		r := MulVec(a, x)
		for i := range r {
			if !almostEq(r[i], b[i], 1e-8*(1+math.Abs(b[i]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyInverseRoundTrip(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz%5) + 1
		rng := rand.New(rand.NewSource(seed))
		a := randomNonSingular(rng, n)
		inv, err := Inverse(a)
		if err != nil {
			return false
		}
		return EqualApprox(Mul(a, inv), Identity(n), 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyMulAssociativeWithVec(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomNonSingular(rng, 4)
		b := randomNonSingular(rng, 4)
		x := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		// (A·B)·x == A·(B·x)
		lhs := MulVec(Mul(a, b), x)
		rhs := MulVec(a, MulVec(b, x))
		for i := range lhs {
			if !almostEq(lhs[i], rhs[i], 1e-8*(1+math.Abs(rhs[i]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyTransposeInvolution(t *testing.T) {
	f := func(seed int64, r, c uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := New(int(r%5)+1, int(c%5)+1)
		for i := 0; i < m.Rows(); i++ {
			for j := 0; j < m.Cols(); j++ {
				m.Set(i, j, rng.NormFloat64())
			}
		}
		return EqualApprox(m.Transpose().Transpose(), m, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	m := New(2, 2)
	for _, fn := range []func(){
		func() { m.At(2, 0) },
		func() { m.Set(0, 2, 1) },
		func() { m.Row(5) },
		func() { m.Col(-1) },
		func() { m.Slice(0, 3, 0, 1) },
		func() { Mul(m, New(3, 3)) },
		func() { MulVec(m, []float64{1}) },
		func() { Sum(m, New(3, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}
