package qbd_test

// R-matrix kernel benchmarks over small/medium/large block orders, with a
// frozen copy of the pre-change allocating kernel (pmat + pRMatrix below)
// as the permanent regression baseline. The committed numbers live in
// BENCH_kernel.json (regenerate with `make bench-kernel`); acceptance for
// the zero-allocation kernel rework is RMatrix/medium at ≥2× lower ns/op
// and ≥5× fewer allocs/op than RMatrixPre/medium.

import (
	"math"
	"testing"

	"repro/internal/matrix"
	"repro/internal/qbd"
)

// benchBlocks builds CTMC QBD blocks of block order n shaped like the gang
// model's per-class chains: a sparse phase-preserving arrival block A0 =
// λ·I, a sparse completion block A2 routing each phase to two successor
// phases, and a banded phase-churn block A1 carrying the diagonal. The
// drift condition holds (λ < μ), so the R-matrix solvers converge.
func benchBlocks(n int) (a0, a1, a2 *matrix.Dense) {
	const lambda, mu = 0.6, 1.0
	a0 = matrix.Scaled(lambda, matrix.Identity(n))
	a2 = matrix.New(n, n)
	a1 = matrix.New(n, n)
	for i := 0; i < n; i++ {
		a2.Set(i, (i*7+1)%n, 0.7*mu)
		a2.Set(i, (i*3+2)%n, 0.3*mu)
		a1.Set(i, (i+1)%n, 2.0)
		if n > 5 {
			a1.Set(i, (i+5)%n, 0.5)
		}
	}
	// Complete the diagonal so A0+A1+A2 is a conservative generator.
	for i := 0; i < n; i++ {
		var s float64
		for j := 0; j < n; j++ {
			s += a0.At(i, j) + a2.At(i, j)
			if j != i {
				s += a1.At(i, j)
			}
		}
		a1.Set(i, i, -s)
	}
	return a0, a1, a2
}

var benchOrders = []struct {
	name string
	n    int
}{
	{"small", 16},
	{"medium", 48},
	{"large", 120},
}

// BenchmarkRMatrix measures the current R-matrix solver (workspace-reusing
// in-place kernels, CSR products where the uniformized blocks are thin).
func BenchmarkRMatrix(b *testing.B) {
	for _, sz := range benchOrders {
		b.Run(sz.name, func(b *testing.B) {
			a0, a1, a2 := benchBlocks(sz.n)
			opts := qbd.RMatrixOptions{Workspace: matrix.NewWorkspace()}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := qbd.RMatrix(a0, a1, a2, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRMatrixNewton measures the large tier with the Newton-class
// cyclic-reduction rung enabled (RMatrixOptions.Newton). Only the large
// order is run: the rung is gated on NewtonMinOrder, so the small and
// medium tiers would silently fall through to logarithmic reduction and
// report a meaningless "newton" number. Compare against
// BenchmarkRMatrix/large; `make bench` emits the ratio as
// newton_vs_logreduction.
func BenchmarkRMatrixNewton(b *testing.B) {
	for _, sz := range benchOrders {
		if sz.name != "large" {
			continue
		}
		b.Run(sz.name, func(b *testing.B) {
			a0, a1, a2 := benchBlocks(sz.n)
			opts := qbd.RMatrixOptions{Workspace: matrix.NewWorkspace(), Newton: true}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := qbd.RMatrix(a0, a1, a2, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// hugeBlocks builds production-scale QBD blocks of block order p·q by
// Kronecker structure: p partition/service macro-phases, each expanded
// by a depth-q PH service stage — the shape the gang model's repeating
// portion takes at P ~ thousands with deep phase-type service. A0 and A2
// are Kronecker products (λ·I_p⊗I_q and μ·S_p⊗I_q, built by
// matrix.NewKron); A1 is the dense phase-churn block I_p⊗T_q + C_p⊗I_q
// with the diagonal completed so A0+A1+A2 is a conservative generator.
// λ < μ, so the drift condition holds at every tier.
func hugeBlocks(p, q int) (a0, a1, a2 *matrix.Dense) {
	const lambda, mu = 0.6, 1.0
	n := p * q

	// S_p: each macro-phase completes into two successors (row sums 1).
	sp := matrix.New(p, p)
	for i := 0; i < p; i++ {
		sp.Set(i, (i*7+1)%p, 0.7)
		sp.Set(i, (i*3+2)%p, 0.3)
	}
	a0 = matrix.NewKron(matrix.KronTerm{Coef: lambda, L: matrix.Identity(p), R: matrix.Identity(q)})
	a2 = matrix.NewKron(matrix.KronTerm{Coef: mu, L: sp, R: matrix.Identity(q)})

	a1 = matrix.New(n, n)
	for i := 0; i < n; i++ {
		ip, iq := i/q, i%q
		a1.Set(i, ip*q+(iq+1)%q, 2.0)   // I_p ⊗ T_q: stage advance
		a1.Set(i, ip*q+(iq+5)%q, 0.5)   // I_p ⊗ T_q: stage skip
		a1.Set(i, ((ip+1)%p)*q+iq, 0.3) // C_p ⊗ I_q: macro-phase churn
	}
	for i := 0; i < n; i++ {
		var s float64
		for j := 0; j < n; j++ {
			s += a0.At(i, j) + a2.At(i, j)
			if j != i {
				s += a1.At(i, j)
			}
		}
		a1.Set(i, i, -s)
	}
	return a0, a1, a2
}

// BenchmarkRMatrixHuge is the production-scale tier: block orders in the
// thousands with Kronecker-structured A0/A2 and a deep-PH dense A1, run
// once per variant (`make bench-huge` passes -benchtime 1x). Each tier
// solves with the default ladder (logarithmic reduction) and with the
// Newton rung; BENCH_huge.json commits the numbers.
func BenchmarkRMatrixHuge(b *testing.B) {
	tiers := []struct {
		name string
		p, q int
	}{
		{"h1024", 32, 32},
		{"h2048", 64, 32},
	}
	for _, tier := range tiers {
		a0, a1, a2 := hugeBlocks(tier.p, tier.q)
		for _, v := range []struct {
			name   string
			newton bool
		}{
			{"logreduction", false},
			{"newton", true},
		} {
			b.Run(tier.name+"/"+v.name, func(b *testing.B) {
				opts := qbd.RMatrixOptions{Workspace: matrix.NewWorkspace(), Newton: v.newton}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := qbd.RMatrix(a0, a1, a2, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkRMatrixPre measures the frozen pre-change kernel: a fresh
// allocation for every Mul/Sum/Scaled/Diff and an explicit inverse per
// reduction step, exactly as the solver shipped before the in-place
// kernel rework.
func BenchmarkRMatrixPre(b *testing.B) {
	for _, sz := range benchOrders {
		b.Run(sz.name, func(b *testing.B) {
			a0, a1, a2 := benchBlocks(sz.n)
			p0, p1, p2 := fromDense(a0), fromDense(a1), fromDense(a2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pRMatrix(p0, p1, p2, 1e-12, 10000); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// spreadBlocks builds CTMC QBD blocks of order n whose arrivals (A0)
// reach the phases j with (i+j) % stride0 == 0 and whose completions (A2)
// reach those with (i+j) % stride2 == 0, with unequal weights, so neither
// block commutes with the iterates. Their rows sum to λ and μ in every
// phase, so the drift condition holds (λ < μ).
func spreadBlocks(n, stride0, stride2 int) (a0, a1, a2 *matrix.Dense) {
	const lambda, mu = 0.6, 1.0
	a0, a1, a2 = matrix.New(n, n), matrix.New(n, n), matrix.New(n, n)
	for i := 0; i < n; i++ {
		var w0, w2 float64
		for j := 0; j < n; j++ {
			if (i+j)%stride0 == 0 {
				w0 += float64(1 + (i*7+j*3)%5)
			}
			if (i+j)%stride2 == 0 {
				w2 += float64(1 + (i+j*5)%4)
			}
		}
		for j := 0; j < n; j++ {
			if (i+j)%stride0 == 0 {
				a0.Set(i, j, lambda*float64(1+(i*7+j*3)%5)/w0)
			}
			if (i+j)%stride2 == 0 {
				a2.Set(i, j, mu*float64(1+(i+j*5)%4)/w2)
			}
			if j == (i+1)%n {
				a1.Set(i, j, 2.0)
			}
		}
	}
	for i := 0; i < n; i++ {
		var s float64
		for j := 0; j < n; j++ {
			s += a0.At(i, j) + a2.At(i, j)
			if j != i {
				s += a1.At(i, j)
			}
		}
		a1.Set(i, i, -s)
	}
	return a0, a1, a2
}

// TestPreKernelAgrees pins the frozen baseline to the live solver on both
// sides of the ladder's density rule: thin blocks, whose uniformized D₀
// and D₂ the ladder multiplies through CSR copies, and blocks above 25%
// non-zero, which it multiplies with the dense kernel. Each must produce,
// through qbd.RMatrix, the exact R of the allocating kernel the in-place
// rework replaced, bit for bit. The benchmark's thin blocks have A0 = λI,
// which commutes with everything, so a second thin set routes arrivals.
func TestPreKernelAgrees(t *testing.T) {
	for _, tc := range []struct {
		name   string
		n      int
		blocks func() (a0, a1, a2 *matrix.Dense)
		thin   bool
	}{
		{"thin", 24, func() (a0, a1, a2 *matrix.Dense) { return benchBlocks(24) }, true},
		{"thin routed", 24, func() (a0, a1, a2 *matrix.Dense) { return spreadBlocks(24, 6, 8) }, true},
		{"dense", 12, func() (a0, a1, a2 *matrix.Dense) { return spreadBlocks(12, 1, 2) }, false},
	} {
		a0, a1, a2 := tc.blocks()
		for _, a := range []*matrix.Dense{a0, a2} {
			if d := matrix.FromDense(a).Density(); (d <= 0.25) != tc.thin {
				t.Fatalf("%s: block density %v is on the wrong side of 25%%", tc.name, d)
			}
		}
		pr, err := pRMatrix(fromDense(a0), fromDense(a1), fromDense(a2), 1e-12, 10000)
		if err != nil {
			t.Fatal(err)
		}
		r, err := qbd.RMatrix(a0, a1, a2, qbd.RMatrixOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tc.n; i++ {
			for j := 0; j < tc.n; j++ {
				if math.Float64bits(r.At(i, j)) != math.Float64bits(pr.at(i, j)) {
					t.Fatalf("%s R[%d][%d]: live %v != pre %v", tc.name, i, j, r.At(i, j), pr.at(i, j))
				}
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Frozen pre-change kernel. pmat and the p* helpers below replicate, loop
// for loop, the dense kernel and R-matrix solver as they existed before
// the in-place rework. Do not "optimize" this code: it is the baseline.
// ---------------------------------------------------------------------------

type pmat struct {
	rows, cols int
	data       []float64
}

func pNew(r, c int) *pmat { return &pmat{rows: r, cols: c, data: make([]float64, r*c)} }

func (m *pmat) at(i, j int) float64 { return m.data[i*m.cols+j] }

func fromDense(d *matrix.Dense) *pmat {
	m := pNew(d.Rows(), d.Cols())
	for i := 0; i < d.Rows(); i++ {
		for j := 0; j < d.Cols(); j++ {
			m.data[i*m.cols+j] = d.At(i, j)
		}
	}
	return m
}

func pIdentity(n int) *pmat {
	m := pNew(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

func (m *pmat) clone() *pmat {
	c := pNew(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

func pSum(a, b *pmat) *pmat {
	c := pNew(a.rows, a.cols)
	for i := range c.data {
		c.data[i] = a.data[i] + b.data[i]
	}
	return c
}

func pDiff(a, b *pmat) *pmat {
	c := pNew(a.rows, a.cols)
	for i := range c.data {
		c.data[i] = a.data[i] - b.data[i]
	}
	return c
}

func pScaled(s float64, a *pmat) *pmat {
	c := pNew(a.rows, a.cols)
	for i := range c.data {
		c.data[i] = s * a.data[i]
	}
	return c
}

func pMul(a, b *pmat) *pmat {
	c := pNew(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		ci := c.data[i*c.cols : (i+1)*c.cols]
		for k := 0; k < a.cols; k++ {
			aik := a.data[i*a.cols+k]
			if aik == 0 {
				continue
			}
			bk := b.data[k*b.cols : (k+1)*b.cols]
			for j, bv := range bk {
				ci[j] += aik * bv
			}
		}
	}
	return c
}

func (m *pmat) maxAbs() float64 {
	var mx float64
	for _, v := range m.data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

type pLU struct {
	lu  *pmat
	piv []int
}

func pFactorize(a *pmat) (*pLU, error) {
	n := a.rows
	f := &pLU{lu: a.clone(), piv: make([]int, n)}
	for i := range f.piv {
		f.piv[i] = i
	}
	lu := f.lu.data
	for k := 0; k < n; k++ {
		p, mx := k, math.Abs(lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu[i*n+k]); a > mx {
				p, mx = i, a
			}
		}
		if mx == 0 {
			return nil, matrix.ErrSingular
		}
		if p != k {
			for j := 0; j < n; j++ {
				lu[k*n+j], lu[p*n+j] = lu[p*n+j], lu[k*n+j]
			}
			f.piv[k], f.piv[p] = f.piv[p], f.piv[k]
		}
		pivot := lu[k*n+k]
		for i := k + 1; i < n; i++ {
			m := lu[i*n+k] / pivot
			lu[i*n+k] = m
			if m == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				lu[i*n+j] -= m * lu[k*n+j]
			}
		}
	}
	return f, nil
}

func (f *pLU) solveVec(b []float64) []float64 {
	n := f.lu.rows
	lu := f.lu.data
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	for i := 1; i < n; i++ {
		var s float64
		for j := 0; j < i; j++ {
			s += lu[i*n+j] * x[j]
		}
		x[i] -= s
	}
	for i := n - 1; i >= 0; i-- {
		var s float64
		for j := i + 1; j < n; j++ {
			s += lu[i*n+j] * x[j]
		}
		x[i] = (x[i] - s) / lu[i*n+i]
	}
	return x
}

func pInverse(a *pmat) (*pmat, error) {
	f, err := pFactorize(a)
	if err != nil {
		return nil, err
	}
	b := pIdentity(a.rows)
	x := pNew(b.rows, b.cols)
	for j := 0; j < b.cols; j++ {
		colIn := make([]float64, b.rows)
		for i := range colIn {
			colIn[i] = b.data[i*b.cols+j]
		}
		col := f.solveVec(colIn)
		for i, v := range col {
			x.data[i*x.cols+j] = v
		}
	}
	return x, nil
}

func pUniformize(a0, a1, a2 *pmat) (d0, d1, d2 *pmat) {
	n := a1.rows
	var c float64
	for i := 0; i < n; i++ {
		if r := -a1.at(i, i); r > c {
			c = r
		}
	}
	c *= 1.0000001
	d0 = pScaled(1/c, a0)
	d1 = pSum(pScaled(1/c, a1), pIdentity(n))
	d2 = pScaled(1/c, a2)
	return d0, d1, d2
}

func pRFromG(d0, d1, g *pmat) (*pmat, error) {
	n := d1.rows
	m := pDiff(pIdentity(n), pSum(d1, pMul(d0, g)))
	inv, err := pInverse(m)
	if err != nil {
		return nil, err
	}
	return pMul(d0, inv), nil
}

func pLogReduction(d0, d1, d2 *pmat, tol float64, maxIter int) (*pmat, error) {
	n := d1.rows
	id := pIdentity(n)
	base, err := pInverse(pDiff(id, d1))
	if err != nil {
		return nil, err
	}
	h := pMul(base, d0)
	l := pMul(base, d2)
	g := l.clone()
	t := h.clone()
	for iter := 0; iter < maxIter; iter++ {
		u := pSum(pMul(h, l), pMul(l, h))
		inv, err := pInverse(pDiff(id, u))
		if err != nil {
			return nil, err
		}
		h2 := pMul(inv, pMul(h, h))
		l2 := pMul(inv, pMul(l, l))
		g = pSum(g, pMul(t, l2))
		t = pMul(t, h2)
		h, l = h2, l2
		if t.maxAbs() < tol {
			return pRFromG(d0, d1, g)
		}
	}
	return nil, matrix.ErrNoConverge
}

func pSuccSub(d0, d1, d2 *pmat, tol float64, maxIter int) (*pmat, error) {
	n := d1.rows
	inv, err := pInverse(pDiff(pIdentity(n), d1))
	if err != nil {
		return nil, err
	}
	r := pNew(n, n)
	for iter := 0; iter < maxIter; iter++ {
		next := pMul(pSum(d0, pMul(pMul(r, r), d2)), inv)
		diff := pDiff(next, r).maxAbs()
		r = next
		if diff < tol {
			return r, nil
		}
	}
	return nil, matrix.ErrNoConverge
}

func pRMatrix(a0, a1, a2 *pmat, tol float64, maxIter int) (*pmat, error) {
	d0, d1, d2 := pUniformize(a0, a1, a2)
	r, err := pLogReduction(d0, d1, d2, tol, maxIter)
	if err == nil {
		return r, nil
	}
	return pSuccSub(d0, d1, d2, tol, maxIter)
}
