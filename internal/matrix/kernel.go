package matrix

import "fmt"

// This file holds the destination-taking, allocation-free kernels behind
// the package's allocating convenience API. Every *To kernel performs the
// exact same sequence of rounded floating-point operations as its
// allocating counterpart (Mul, Sum, Diff, Scaled), so switching a call
// site between the two never changes results by even one ULP — the QBD
// solvers rely on this to keep sweep artifacts byte-identical while
// reusing workspace buffers.

// MulTo computes C = A·B into dst, which must be a.rows×b.cols and must
// not alias a or b. Returns dst.
//
// The kernel is the classical ikj loop panel-blocked four rows of B at a
// time: each destination row stays in registers/L1 across a panel, its
// elements are loaded and stored once per four k terms instead of once
// per term, and all indexing is hoisted to row slices so the inner loop
// runs without per-element bounds checks. Products still accumulate in
// ascending-k order with zero rows of A skipped, exactly like Mul.
func MulTo(dst, a, b *Dense) *Dense {
	if a.cols != b.rows {
		panic(fmt.Sprintf("matrix: MulTo dimension mismatch %dx%d · %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	if dst.rows != a.rows || dst.cols != b.cols {
		panic(fmt.Sprintf("matrix: MulTo into %dx%d, want %dx%d", dst.rows, dst.cols, a.rows, b.cols))
	}
	noAlias(dst, a, "MulTo")
	noAlias(dst, b, "MulTo")
	dst.Zero()
	mulKernel(dst, a, b)
	return dst
}

// AccumMulTo computes C += A·B into dst under the same shape and aliasing
// rules as MulTo. Returns dst.
func AccumMulTo(dst, a, b *Dense) *Dense {
	if a.cols != b.rows {
		panic(fmt.Sprintf("matrix: AccumMulTo dimension mismatch %dx%d · %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	if dst.rows != a.rows || dst.cols != b.cols {
		panic(fmt.Sprintf("matrix: AccumMulTo into %dx%d, want %dx%d", dst.rows, dst.cols, a.rows, b.cols))
	}
	noAlias(dst, a, "AccumMulTo")
	noAlias(dst, b, "AccumMulTo")
	mulKernel(dst, a, b)
	return dst
}

// mulKernel accumulates A·B into dst. For every destination element the
// per-term adds happen in ascending k with aik == 0 skipped — the same
// rounded-operation sequence as the historical allocating Mul, just with
// eight B rows per pass when the corresponding A entries are all non-zero
// (Go rounds after every binary float op and the panel expressions
// associate left, so they are bitwise identical to sequential adds).
func mulKernel(dst, a, b *Dense) {
	ar, ac, bc := a.rows, a.cols, b.cols
	bd := b.data
	for i := 0; i < ar; i++ {
		mulRow(dst.data[i*bc:(i+1)*bc], a.data[i*ac:(i+1)*ac], bd, bc)
	}
}

// mulRow accumulates one destination row ci += ai·B, where B is bd with
// leading dimension bc. It is the per-row body of mulKernel, shared with
// the structured BlockOp implementations (a Kronecker operator that
// materializes one A row at a time produces bitwise the result of a
// dense multiply by running the same row kernel).
func mulRow(ci, ai, bd []float64, bc int) {
	ac := len(ai)
	k := 0
	for ; k+7 < ac; k += 8 {
		a0, a1, a2, a3 := ai[k], ai[k+1], ai[k+2], ai[k+3]
		a4, a5, a6, a7 := ai[k+4], ai[k+5], ai[k+6], ai[k+7]
		if a0 != 0 && a1 != 0 && a2 != 0 && a3 != 0 &&
			a4 != 0 && a5 != 0 && a6 != 0 && a7 != 0 {
			pa := [8]float64{a0, a1, a2, a3, a4, a5, a6, a7}
			axpyPanel8(ci, bd[k*bc:], bc, &pa)
			continue
		}
		quadStep(ci, bd, bc, a0, a1, a2, a3, k)
		quadStep(ci, bd, bc, a4, a5, a6, a7, k+4)
	}
	for ; k+3 < ac; k += 4 {
		quadStep(ci, bd, bc, ai[k], ai[k+1], ai[k+2], ai[k+3], k)
	}
	for ; k < ac; k++ {
		axpyRow(ci, ai[k], bd[k*bc:(k+1)*bc])
	}
}

// axpyPanel8Go is the portable all-nonzero eight-term panel:
// ci[j] = ci[j] + a[0]·b0[j] + … + a[7]·b7[j], where row t of the panel
// is b[t·ldb : t·ldb+len(ci)]. The expression associates left, so it is
// bitwise identical to eight sequential axpyRow passes; the AVX2 version
// in kernel_amd64.s performs the same per-element operation chain.
func axpyPanel8Go(ci, b []float64, ldb int, a *[8]float64) {
	a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
	a4, a5, a6, a7 := a[4], a[5], a[6], a[7]
	b0 := b[0*ldb:][:len(ci)]
	b1 := b[1*ldb:][:len(ci)]
	b2 := b[2*ldb:][:len(ci)]
	b3 := b[3*ldb:][:len(ci)]
	b4 := b[4*ldb:][:len(ci)]
	b5 := b[5*ldb:][:len(ci)]
	b6 := b[6*ldb:][:len(ci)]
	b7 := b[7*ldb:][:len(ci)]
	for j := range ci {
		ci[j] = ci[j] + a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j] +
			a4*b4[j] + a5*b5[j] + a6*b6[j] + a7*b7[j]
	}
}

// quadStep accumulates the four terms k..k+3 into ci, with the same
// zero-skipping and ascending-k ordering as sequential axpyRow calls.
func quadStep(ci, bd []float64, bc int, a0, a1, a2, a3 float64, k int) {
	if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
		return
	}
	if a0 != 0 && a1 != 0 && a2 != 0 && a3 != 0 {
		b0 := bd[k*bc : (k+1)*bc][:len(ci)]
		b1 := bd[(k+1)*bc : (k+2)*bc][:len(ci)]
		b2 := bd[(k+2)*bc : (k+3)*bc][:len(ci)]
		b3 := bd[(k+3)*bc : (k+4)*bc][:len(ci)]
		for j := range ci {
			ci[j] = ci[j] + a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
		}
		return
	}
	axpyRow(ci, a0, bd[k*bc:(k+1)*bc])
	axpyRow(ci, a1, bd[(k+1)*bc:(k+2)*bc])
	axpyRow(ci, a2, bd[(k+2)*bc:(k+3)*bc])
	axpyRow(ci, a3, bd[(k+3)*bc:(k+4)*bc])
}

// axpyRow accumulates aik·bk into ci, skipping zero coefficients like Mul.
func axpyRow(ci []float64, aik float64, bk []float64) {
	if aik == 0 {
		return
	}
	bk = bk[:len(ci)]
	for j := range ci {
		ci[j] += aik * bk[j]
	}
}

// AddTo computes C = A + B into dst (same shape; dst may alias a or b).
// Returns dst.
func AddTo(dst, a, b *Dense) *Dense {
	sameShape(a, b)
	sameShape(dst, a)
	for i := range dst.data {
		dst.data[i] = a.data[i] + b.data[i]
	}
	return dst
}

// DiffTo computes C = A − B into dst (same shape; dst may alias a or b).
// Returns dst.
func DiffTo(dst, a, b *Dense) *Dense {
	sameShape(a, b)
	sameShape(dst, a)
	for i := range dst.data {
		dst.data[i] = a.data[i] - b.data[i]
	}
	return dst
}

// ScaledTo computes C = s·A into dst (same shape; dst may alias a).
// Returns dst.
func ScaledTo(dst *Dense, s float64, a *Dense) *Dense {
	sameShape(dst, a)
	for i := range dst.data {
		dst.data[i] = s * a.data[i]
	}
	return dst
}

// MaxAbsDiff returns ‖A − B‖_max without materializing the difference;
// bitwise equal to Diff(a, b).MaxAbs().
func MaxAbsDiff(a, b *Dense) float64 {
	sameShape(a, b)
	var mx float64
	for i := range a.data {
		d := a.data[i] - b.data[i]
		if d < 0 {
			d = -d
		}
		if d > mx {
			mx = d
		}
	}
	return mx
}

// TransposeTo writes Aᵀ into dst (must be a.cols×a.rows, no aliasing).
// Returns dst.
func TransposeTo(dst, a *Dense) *Dense {
	if dst.rows != a.cols || dst.cols != a.rows {
		panic(fmt.Sprintf("matrix: TransposeTo into %dx%d, want %dx%d", dst.rows, dst.cols, a.cols, a.rows))
	}
	noAlias(dst, a, "TransposeTo")
	for i := 0; i < a.rows; i++ {
		row := a.data[i*a.cols : (i+1)*a.cols]
		for j, v := range row {
			dst.data[j*dst.cols+i] = v
		}
	}
	return dst
}

// CopyFrom copies src into m (same shape). Returns m.
func (m *Dense) CopyFrom(src *Dense) *Dense {
	sameShape(m, src)
	copy(m.data, src.data)
	return m
}

// Zero clears every element of m.
func (m *Dense) Zero() {
	clear(m.data)
}

// reshape makes m a rows×cols matrix with unspecified contents, reusing
// the storage whenever its capacity suffices, for callers that
// overwrite every element.
func (m *Dense) reshape(rows, cols int) {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("matrix: negative dimension %dx%d", rows, cols))
	}
	if n := rows * cols; cap(m.data) < n {
		m.data = make([]float64, n)
	} else {
		m.data = m.data[:n]
	}
	m.rows, m.cols = rows, cols
}

// SetIdentity writes the identity into the square matrix m. Returns m.
func (m *Dense) SetIdentity() *Dense {
	if m.rows != m.cols {
		panic(fmt.Sprintf("matrix: SetIdentity of non-square %dx%d", m.rows, m.cols))
	}
	clear(m.data)
	for i := 0; i < m.rows; i++ {
		m.data[i*m.cols+i] = 1
	}
	return m
}

// MulVecTo computes A·x into dst (len a.rows; dst must not alias x).
// Returns dst.
func MulVecTo(dst []float64, a *Dense, x []float64) []float64 {
	if a.cols != len(x) {
		panic(fmt.Sprintf("matrix: MulVecTo dimension mismatch %dx%d · %d", a.rows, a.cols, len(x)))
	}
	if len(dst) != a.rows {
		panic(fmt.Sprintf("matrix: MulVecTo into %d, want %d", len(dst), a.rows))
	}
	for i := 0; i < a.rows; i++ {
		row := a.data[i*a.cols : (i+1)*a.cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
	return dst
}

// VecMulTo computes xᵀ·A into dst (len a.cols; dst must not alias x).
// Returns dst.
func VecMulTo(dst []float64, x []float64, a *Dense) []float64 {
	if a.rows != len(x) {
		panic(fmt.Sprintf("matrix: VecMulTo dimension mismatch %d · %dx%d", len(x), a.rows, a.cols))
	}
	if len(dst) != a.cols {
		panic(fmt.Sprintf("matrix: VecMulTo into %d, want %d", len(dst), a.cols))
	}
	clear(dst)
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		row := a.data[i*a.cols : (i+1)*a.cols][:len(dst)]
		for j := range dst {
			dst[j] += xi * row[j]
		}
	}
	return dst
}

func noAlias(dst, src *Dense, op string) {
	if dst == src || (len(dst.data) > 0 && len(src.data) > 0 && &dst.data[0] == &src.data[0]) {
		panic("matrix: " + op + " destination aliases an operand")
	}
}
