package matrix

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a linear system has a (numerically) singular
// coefficient matrix.
var ErrSingular = errors.New("matrix: singular matrix")

// LU holds an LU factorization with partial pivoting: P·A = L·U, where L is
// unit lower triangular and U upper triangular, packed into a single matrix.
//
// An LU is reusable: Reset refactorizes a new same-order matrix into the
// existing pivot and packed-factor buffers, and the *To solvers write into
// caller storage, so repeated solves in a hot loop perform no allocation
// after the first. The factorization and solves run the exact same
// floating-point operation sequence as the one-shot Factorize/SolveVec
// path, so reuse never perturbs results.
type LU struct {
	lu      *Dense
	piv     []int // row i of the factorization came from row piv[i] of A
	sign    int
	scratch []float64 // 2n: column buffer + solution buffer for InverseTo
	quad    []float64 // 4n: interleaved 4-column buffer for InverseTo
	oct     []float64 // 8n: interleaved 8-column buffer for InverseTo
}

// NewLU returns an order-n LU shell with no factorization; call Reset to
// factorize into it.
func NewLU(n int) *LU {
	return &LU{lu: New(n, n), piv: make([]int, n), sign: 1}
}

// Order returns the order of the factorized system.
func (f *LU) Order() int { return f.lu.rows }

// Factorize computes the LU factorization of the square matrix a.
func Factorize(a *Dense) (*LU, error) {
	if a.rows != a.cols {
		panic(fmt.Sprintf("matrix: Factorize of non-square %dx%d", a.rows, a.cols))
	}
	f := NewLU(a.rows)
	if err := f.Reset(a); err != nil {
		return nil, err
	}
	return f, nil
}

// Reset refactorizes f for the square matrix a, reusing the existing
// buffers whenever their capacity suffices, also when the order changes,
// so one LU serving systems of varying order allocates only when it
// outgrows every earlier one. On a singular input f holds no valid
// factorization but remains reusable.
func (f *LU) Reset(a *Dense) error {
	if a.rows != a.cols {
		panic(fmt.Sprintf("matrix: LU.Reset of non-square %dx%d", a.rows, a.cols))
	}
	if f.lu == nil {
		f.lu = New(a.rows, a.rows)
	}
	f.lu.reshape(a.rows, a.rows)
	f.lu.CopyFrom(a)
	return f.factorize()
}

// factorize runs the pivoted elimination on f.lu in place, first sizing
// the pivot buffer to its order.
func (f *LU) factorize() error {
	n := f.lu.rows
	if len(f.piv) != n {
		if cap(f.piv) < n {
			f.piv = make([]int, n)
		}
		f.piv = f.piv[:n]
		f.scratch = nil
		f.quad = nil
		f.oct = nil
	}
	f.sign = 1
	for i := range f.piv {
		f.piv[i] = i
	}
	lu := f.lu.data
	for k := 0; k < n; k++ {
		// Partial pivot: largest |entry| in column k at or below the diagonal.
		p, mx := k, math.Abs(lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu[i*n+k]); a > mx {
				p, mx = i, a
			}
		}
		if mx == 0 {
			return ErrSingular
		}
		if p != k {
			for j := 0; j < n; j++ {
				lu[k*n+j], lu[p*n+j] = lu[p*n+j], lu[k*n+j]
			}
			f.piv[k], f.piv[p] = f.piv[p], f.piv[k]
			f.sign = -f.sign
		}
		pivot := lu[k*n+k]
		rowk := lu[k*n+k+1 : (k+1)*n]
		for i := k + 1; i < n; i++ {
			m := lu[i*n+k] / pivot
			lu[i*n+k] = m
			if m == 0 {
				continue
			}
			rowi := lu[i*n+k+1 : (i+1)*n][:len(rowk)]
			elimRow(rowi, rowk, m)
		}
	}
	return nil
}

// SolveVec solves A·x = b for x.
func (f *LU) SolveVec(b []float64) []float64 {
	return f.SolveVecTo(make([]float64, f.lu.rows), b)
}

// SolveVecTo solves A·x = b into dst, which must not alias b.
func (f *LU) SolveVecTo(dst, b []float64) []float64 {
	n := f.lu.rows
	if len(b) != n {
		panic(fmt.Sprintf("matrix: SolveVecTo length mismatch %d vs %d", len(b), n))
	}
	if len(dst) != n {
		panic(fmt.Sprintf("matrix: SolveVecTo into %d, want %d", len(dst), n))
	}
	if n > 0 && &dst[0] == &b[0] {
		panic("matrix: SolveVecTo destination aliases b")
	}
	lu := f.lu.data
	x := dst
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution with unit lower triangle.
	for i := 1; i < n; i++ {
		row := lu[i*n : i*n+i]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		x[i] -= s
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		row := lu[i*n+i+1 : (i+1)*n]
		var s float64
		for j, v := range row {
			s += v * x[i+1+j]
		}
		x[i] = (x[i] - s) / lu[i*n+i]
	}
	return x
}

// Solve solves A·X = B column by column.
func (f *LU) Solve(b *Dense) *Dense {
	return f.SolveTo(New(b.rows, b.cols), b)
}

// SolveTo solves A·X = B into dst (same shape as b, not aliasing it),
// column by column like Solve but reusing f's internal column scratch.
func (f *LU) SolveTo(dst, b *Dense) *Dense {
	n := f.lu.rows
	if b.rows != n {
		panic(fmt.Sprintf("matrix: SolveTo row mismatch %d vs %d", b.rows, n))
	}
	sameShape(dst, b)
	noAlias(dst, b, "SolveTo")
	col, x := f.colScratch()
	for j := 0; j < b.cols; j++ {
		for i := 0; i < n; i++ {
			col[i] = b.data[i*b.cols+j]
		}
		f.SolveVecTo(x, col)
		for i, v := range x {
			dst.data[i*dst.cols+j] = v
		}
	}
	return dst
}

// InverseTo writes A⁻¹ into dst, solving against unit columns with the
// same operation sequence as Inverse.
//
// Unit columns are solved eight at a time (then four, then one for the
// tails) with their substitution recurrences interleaved: the
// accumulator chains are independent, so the CPU pipelines them instead
// of stalling on one serial chain — the eight-column groups run through
// the SIMD substitution kernels, one column per vector lane — and each
// row of the packed factors is read once per group. Per column the
// rounded operations are exactly those of SolveVecTo on its unit vector
// (the skipped leading terms are exact ±0 contributions to a +0
// accumulator, and each lane chains its adds in the same order), so the
// result is bitwise identical to the one-column loop at every group
// width.
func (f *LU) InverseTo(dst *Dense) *Dense {
	n := f.lu.rows
	if dst.rows != n || dst.cols != n {
		panic(fmt.Sprintf("matrix: InverseTo into %dx%d, want %dx%d", dst.rows, dst.cols, n, n))
	}
	lu := f.lu.data
	j := 0
	if n >= 8 {
		if len(f.oct) != 8*n {
			f.oct = make([]float64, 8*n)
		}
		xo := f.oct
		for ; j+7 < n; j += 8 {
			// Permuted unit vectors: column j+c is non-zero at the row i
			// with piv[i] = j+c. Rows before the first non-zero stay
			// exactly zero through forward substitution, so start there.
			clear(xo)
			start := n
			for i, p := range f.piv {
				if p >= j && p < j+8 {
					xo[i*8+(p-j)] = 1
					if i < start {
						start = i
					}
				}
			}
			for i := start + 1; i < n; i++ {
				fwdStep8(xo[start*8:], lu[i*n+start:i*n+i])
			}
			for i := n - 1; i >= 0; i-- {
				backStep8(xo[i*8:], lu[i*n+i+1:(i+1)*n], lu[i*n+i])
			}
			for i := 0; i < n; i++ {
				copy(dst.data[i*dst.cols+j:i*dst.cols+j+8], xo[i*8:i*8+8])
			}
		}
	}
	if j+3 < n && len(f.quad) != 4*n {
		f.quad = make([]float64, 4*n)
	}
	xq := f.quad
	for ; j+3 < n; j += 4 {
		// Permuted unit vectors: column j+c is non-zero at the row i with
		// piv[i] = j+c. Rows before the first non-zero stay exactly zero
		// through forward substitution, so start there.
		clear(xq)
		start := n
		for i, p := range f.piv {
			if p >= j && p < j+4 {
				xq[i*4+(p-j)] = 1
				if i < start {
					start = i
				}
			}
		}
		for i := start + 1; i < n; i++ {
			row := lu[i*n : i*n+i]
			var s0, s1, s2, s3 float64
			for k := start; k < i; k++ {
				v := row[k]
				c := xq[k*4 : k*4+4 : k*4+4]
				s0 += v * c[0]
				s1 += v * c[1]
				s2 += v * c[2]
				s3 += v * c[3]
			}
			xq[i*4] -= s0
			xq[i*4+1] -= s1
			xq[i*4+2] -= s2
			xq[i*4+3] -= s3
		}
		for i := n - 1; i >= 0; i-- {
			row := lu[i*n+i+1 : (i+1)*n]
			var s0, s1, s2, s3 float64
			for k, v := range row {
				c := xq[(i+1+k)*4 : (i+1+k)*4+4 : (i+1+k)*4+4]
				s0 += v * c[0]
				s1 += v * c[1]
				s2 += v * c[2]
				s3 += v * c[3]
			}
			d := lu[i*n+i]
			xq[i*4] = (xq[i*4] - s0) / d
			xq[i*4+1] = (xq[i*4+1] - s1) / d
			xq[i*4+2] = (xq[i*4+2] - s2) / d
			xq[i*4+3] = (xq[i*4+3] - s3) / d
		}
		for i := 0; i < n; i++ {
			copy(dst.data[i*dst.cols+j:i*dst.cols+j+4], xq[i*4:i*4+4])
		}
	}
	if j < n {
		col, x := f.colScratch()
		clear(col)
		for ; j < n; j++ {
			col[j] = 1
			f.SolveVecTo(x, col)
			col[j] = 0
			for i, v := range x {
				dst.data[i*dst.cols+j] = v
			}
		}
	}
	return dst
}

func (f *LU) colScratch() (col, x []float64) {
	n := f.lu.rows
	if len(f.scratch) != 2*n {
		f.scratch = make([]float64, 2*n)
	}
	return f.scratch[:n], f.scratch[n:]
}

// SolveTransposed solves Aᵀ·x = b using the factorization of A.
// With P·A = L·U we have Aᵀ = Uᵀ·Lᵀ·P, so the solve is a forward
// substitution with Uᵀ, a back substitution with Lᵀ, and a permutation.
func (f *LU) SolveTransposed(b []float64) []float64 {
	n := f.lu.rows
	if len(b) != n {
		panic(fmt.Sprintf("matrix: SolveTransposed length mismatch %d vs %d", len(b), n))
	}
	lu := f.lu.data
	z := append([]float64(nil), b...)
	// Forward substitution with Uᵀ (lower triangular, diagonal of U).
	for i := 0; i < n; i++ {
		var s float64
		for j := 0; j < i; j++ {
			s += lu[j*n+i] * z[j]
		}
		z[i] = (z[i] - s) / lu[i*n+i]
	}
	// Back substitution with Lᵀ (unit upper triangular).
	for i := n - 1; i >= 0; i-- {
		var s float64
		for j := i + 1; j < n; j++ {
			s += lu[j*n+i] * z[j]
		}
		z[i] -= s
	}
	// Undo the row permutation: x[piv[i]] = z[i].
	x := make([]float64, n)
	for i, p := range f.piv {
		x[p] = z[i]
	}
	return x
}

// InverseInfNormEst estimates ‖A⁻¹‖∞ from the factorization without
// forming the inverse, via the Hager–Higham one-norm estimator applied
// to A⁻ᵀ (‖A⁻¹‖∞ = ‖A⁻ᵀ‖₁). Each round costs one solve with Aᵀ and one
// with A; the estimate is a lower bound that is exact or near-exact for
// the small dense systems arising here. Requires a valid factorization.
func (f *LU) InverseInfNormEst() float64 {
	n := f.lu.rows
	if n == 0 {
		return 0
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = 1 / float64(n)
	}
	xi := make([]float64, n)
	est := 0.0
	for iter := 0; iter < 5; iter++ {
		v := f.SolveTransposed(x) // v = A⁻ᵀ·x
		g := 0.0
		for i, vi := range v {
			g += math.Abs(vi)
			if vi >= 0 {
				xi[i] = 1
			} else {
				xi[i] = -1
			}
		}
		est = g
		z := f.SolveVec(xi) // z = (A⁻ᵀ)ᵀ·ξ = A⁻¹·ξ
		j, zmax := 0, 0.0
		for i, zi := range z {
			if a := math.Abs(zi); a > zmax {
				zmax, j = a, i
			}
		}
		// Optimality test: no coordinate direction improves the estimate.
		if zmax <= Dot(z, x) {
			break
		}
		clear(x)
		x[j] = 1
	}
	// Higham's alternating probe guards against the symmetric-tie case
	// where the power-like iteration converges to an underestimate: the
	// scaled norm of A⁻ᵀ·b for b_i = ±(1 + i/(n−1)) is also a valid lower
	// bound, and the two estimates rarely fail together.
	for i := range x {
		b := 1.0
		if n > 1 {
			b += float64(i) / float64(n-1)
		}
		if i%2 == 1 {
			b = -b
		}
		x[i] = b
	}
	v := f.SolveTransposed(x)
	alt := 0.0
	for _, vi := range v {
		alt += math.Abs(vi)
	}
	if alt = 2 * alt / (3 * float64(n)); alt > est {
		est = alt
	}
	return est
}

// CondInfEstimate estimates the ∞-norm condition number ‖A‖∞·‖A⁻¹‖∞ of
// the factorized matrix, given ‖A‖∞ (which the caller typically has
// before factorizing).
func (f *LU) CondInfEstimate(aInfNorm float64) float64 {
	return aInfNorm * f.InverseInfNormEst()
}

// Det returns the determinant of the factorized matrix.
func (f *LU) Det() float64 {
	n := f.lu.rows
	d := float64(f.sign)
	for i := 0; i < n; i++ {
		d *= f.lu.data[i*n+i]
	}
	return d
}

// Solve solves A·X = B.
func Solve(a, b *Dense) (*Dense, error) {
	f, err := Factorize(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b), nil
}

// SolveVec solves A·x = b.
func SolveVec(a *Dense, b []float64) ([]float64, error) {
	f, err := Factorize(a)
	if err != nil {
		return nil, err
	}
	return f.SolveVec(b), nil
}

// Inverse returns A⁻¹.
func Inverse(a *Dense) (*Dense, error) {
	f, err := Factorize(a)
	if err != nil {
		return nil, err
	}
	return f.InverseTo(New(a.rows, a.rows)), nil
}

// SolveTransposedVec solves xᵀ·A = bᵀ, i.e. Aᵀ·x = b, without forming Aᵀ
// explicitly at the call site. Used for left eigenvector / stationary-vector
// style systems.
func SolveTransposedVec(a *Dense, b []float64) ([]float64, error) {
	return SolveVec(a.Transpose(), b)
}
