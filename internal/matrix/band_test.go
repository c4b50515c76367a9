package matrix

import (
	"math"
	"math/rand"
	"testing"
)

// bandCase is a band matrix given as its in-band entries, assembled
// either densely or into a BandLU.
type bandCase struct {
	n, p, q int
	entries []bandEntry
}

type bandEntry struct {
	i, j int
	v    float64
}

// randBand draws an order-n band matrix with about 30% structural zeros
// inside the band and magnitudes spread over four decades, so that
// pivoting happens and some draws are singular.
func randBand(rng *rand.Rand, n, p, q int) bandCase {
	c := bandCase{n: n, p: p, q: q}
	for i := 0; i < n; i++ {
		for j := max(0, i-p); j <= min(n-1, i+q); j++ {
			if rng.Float64() < 0.3 {
				continue
			}
			v := math.Pow(10, 4*rng.Float64()-2)
			if rng.Intn(2) == 0 {
				v = -v
			}
			c.entries = append(c.entries, bandEntry{i, j, v})
		}
	}
	return c
}

func (c bandCase) dense() *Dense {
	a := New(c.n, c.n)
	for _, e := range c.entries {
		a.Add(e.i, e.j, e.v)
	}
	return a
}

func (c bandCase) assemble(f *BandLU) {
	f.Reset(c.n, c.p, c.q)
	for _, e := range c.entries {
		f.Add(e.i, e.j, e.v)
	}
}

// checkBandAgainstLU factorizes c both ways and requires the same
// singular verdict and, whenever LU's solution is finite, bitwise its
// solution. It reports whether the matrix was non-singular.
func checkBandAgainstLU(t *testing.T, what string, f *BandLU, c bandCase, b []float64) bool {
	t.Helper()
	want, errLU := Factorize(c.dense())
	c.assemble(f)
	errBand := f.Factorize()
	if errBand != errLU { // both return ErrSingular bare
		t.Fatalf("%s: LU error %v, BandLU error %v", what, errLU, errBand)
	}
	if errLU != nil {
		return false
	}
	exp := want.SolveVec(b)
	if !FiniteVec(exp) {
		return true
	}
	got := f.SolveVecTo(make([]float64, c.n), b)
	for i := range exp {
		if math.Float64bits(got[i]) != math.Float64bits(exp[i]) {
			t.Fatalf("%s: x[%d] = %v, LU gives %v", what, i, got[i], exp[i])
		}
	}
	return true
}

// TestBandLUBitwiseMatchesLU pins BandLU to LU on random band matrices:
// the same ErrSingular verdict and bitwise the same solutions.
func TestBandLUBitwiseMatchesLU(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var f BandLU
	var singular, swapped int
	for trial := 0; trial < 3000; trial++ {
		n, p, q := 1+rng.Intn(60), rng.Intn(6), rng.Intn(7)
		c := randBand(rng, n, p, q)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		if !checkBandAgainstLU(t, "random band", &f, c, b) {
			singular++
			continue
		}
		for i, r := range f.piv {
			if r != i {
				swapped++
				break
			}
		}
	}
	if singular == 0 || swapped < 1000 {
		t.Fatalf("%d singular and %d pivoting draws: the generator no longer exercises both", singular, swapped)
	}
}

// TestBandLULongDrift factorizes a tridiagonal matrix whose sub-diagonal
// dominates its diagonal: every step swaps, so row 0 of A drifts to the
// last position and collects one multiplier per step.
func TestBandLULongDrift(t *testing.T) {
	const n = 120
	c := bandCase{n: n, p: 1, q: 1}
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		c.entries = append(c.entries, bandEntry{i, i, 1 + float64(i%3)})
		if i+1 < n {
			c.entries = append(c.entries, bandEntry{i + 1, i, 10}, bandEntry{i, i + 1, 0.5})
		}
		b[i] = float64(i%5) - 2
	}
	var f BandLU
	if !checkBandAgainstLU(t, "drift", &f, c, b) {
		t.Fatal("drift matrix reported singular")
	}
	if f.piv[n-1] != 0 {
		t.Fatalf("row 0 ended at a position other than %d (piv[%d] = %d)", n-1, n-1, f.piv[n-1])
	}
	count := 0
	for e := f.head[0]; e >= 0; e = f.mult[e].next {
		if f.mult[e].col != count {
			t.Fatalf("row 0's multiplier %d eliminates column %d, want %d", count, f.mult[e].col, count)
		}
		count++
	}
	if count != n-1 {
		t.Fatalf("row 0 holds %d multipliers, want %d", count, n-1)
	}
}

// TestBandLUReuseAcrossShapes reuses one BandLU across growing and
// shrinking orders and bandwidths; every factorization must still match
// LU bit for bit.
func TestBandLUReuseAcrossShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var f BandLU
	for _, s := range []struct{ n, p, q int }{
		{20, 2, 3}, {60, 5, 6}, {3, 0, 0}, {45, 1, 6}, {1, 4, 4}, {60, 5, 6}, {8, 9, 9},
	} {
		c := randBand(rng, s.n, s.p, s.q)
		for i := 0; i < s.n; i++ { // a dominant diagonal keeps every draw non-singular
			c.entries = append(c.entries, bandEntry{i, i, 1e3})
		}
		b := make([]float64, s.n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		if !checkBandAgainstLU(t, "reuse", &f, c, b) {
			t.Fatalf("order %d: reported singular", s.n)
		}
	}
}

// TestBandLUAllocatesNothing pins assembly, factorization and solve at
// zero allocations once the BandLU has seen the order and bandwidths.
func TestBandLUAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	c := randBand(rng, 50, 3, 4)
	for i := 0; i < c.n; i++ {
		c.entries = append(c.entries, bandEntry{i, i, 1e3})
	}
	b, x := make([]float64, c.n), make([]float64, c.n)
	for i := range b {
		b[i] = float64(i)
	}
	var f BandLU
	run := func() {
		c.assemble(&f)
		if err := f.Factorize(); err != nil {
			t.Fatal(err)
		}
		f.SolveVecTo(x, b)
	}
	if n := testing.AllocsPerRun(20, run); n != 0 {
		t.Fatalf("Reset+Add+Factorize+SolveVecTo: %v allocs/op, want 0", n)
	}
}

func TestBandLUAddOutsideBandPanics(t *testing.T) {
	var f BandLU
	f.Reset(5, 1, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Add below the lower bandwidth did not panic")
		}
	}()
	f.Add(3, 1, 1)
}

// FuzzBandLU fuzzes the order, bandwidths and entries of a band matrix:
// BandLU must give LU's singular verdict and, whenever LU's solution is
// finite, bitwise its solution. Each entry takes two bytes, a signed
// mantissa and a binary exponent in [−8, 8], so a zero mantissa is a
// structural zero and magnitudes span seven decades without overflowing
// the factorization; short inputs repeat cyclically.
func FuzzBandLU(f *testing.F) {
	f.Add(uint8(6), uint8(1), uint8(1), []byte{1, 8, 200, 12, 3, 8, 0, 0, 5, 2, 9, 16})
	f.Add(uint8(30), uint8(5), uint8(6), []byte{7, 1, 255, 16, 0, 3, 128, 8})
	f.Add(uint8(1), uint8(0), uint8(0), []byte{0, 0})
	f.Fuzz(func(t *testing.T, n, p, q uint8, data []byte) {
		pairs := len(data) / 2
		if pairs == 0 {
			return
		}
		c := bandCase{n: 1 + int(n)%48, p: int(p) % 8, q: int(q) % 9}
		for i, k := 0, 0; i < c.n; i++ {
			for j := max(0, i-c.p); j <= min(c.n-1, i+c.q); j, k = j+1, k+1 {
				d := data[2*(k%pairs):]
				c.entries = append(c.entries, bandEntry{i, j, math.Ldexp(float64(int8(d[0])), int(d[1]%17)-8)})
			}
		}
		b := make([]float64, c.n)
		for i := range b {
			b[i] = float64(i%7) - 3
		}
		var f BandLU
		checkBandAgainstLU(t, "fuzz", &f, c, b)
	})
}
