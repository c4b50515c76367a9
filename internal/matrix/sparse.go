package matrix

import "fmt"

// Sparse is a compressed-sparse-row matrix, built once from triplets and
// then immutable. It backs the exact global chains whose state spaces are
// far too large for dense storage.
type Sparse struct {
	rows, cols int
	rowPtr     []int
	colIdx     []int
	val        []float64
}

// COO accumulates triplets for Sparse construction. Duplicate entries are
// summed.
type COO struct {
	rows, cols int
	entries    map[[2]int]float64
}

// NewCOO creates an empty triplet accumulator.
func NewCOO(rows, cols int) *COO {
	return &COO{rows: rows, cols: cols, entries: make(map[[2]int]float64)}
}

// Add accumulates v at (i, j).
func (c *COO) Add(i, j int, v float64) {
	if i < 0 || i >= c.rows || j < 0 || j >= c.cols {
		panic(fmt.Sprintf("matrix: COO index (%d,%d) out of range %dx%d", i, j, c.rows, c.cols))
	}
	if v == 0 {
		return
	}
	c.entries[[2]int{i, j}] += v
}

// NNZ returns the number of stored entries.
func (c *COO) NNZ() int { return len(c.entries) }

// ToCSR freezes the accumulator into a Sparse matrix.
func (c *COO) ToCSR() *Sparse {
	s := &Sparse{rows: c.rows, cols: c.cols, rowPtr: make([]int, c.rows+1)}
	counts := make([]int, c.rows)
	for k := range c.entries {
		counts[k[0]]++
	}
	for i := 0; i < c.rows; i++ {
		s.rowPtr[i+1] = s.rowPtr[i] + counts[i]
	}
	s.colIdx = make([]int, len(c.entries))
	s.val = make([]float64, len(c.entries))
	next := make([]int, c.rows)
	copy(next, s.rowPtr[:c.rows])
	for k, v := range c.entries {
		p := next[k[0]]
		s.colIdx[p] = k[1]
		s.val[p] = v
		next[k[0]]++
	}
	// Sort columns within each row for deterministic iteration.
	for i := 0; i < c.rows; i++ {
		lo, hi := s.rowPtr[i], s.rowPtr[i+1]
		insertionSortPair(s.colIdx[lo:hi], s.val[lo:hi])
	}
	return s
}

func insertionSortPair(cols []int, vals []float64) {
	for i := 1; i < len(cols); i++ {
		c, v := cols[i], vals[i]
		j := i - 1
		for j >= 0 && cols[j] > c {
			cols[j+1], vals[j+1] = cols[j], vals[j]
			j--
		}
		cols[j+1], vals[j+1] = c, v
	}
}

// Rows returns the row count.
func (s *Sparse) Rows() int { return s.rows }

// Cols returns the column count.
func (s *Sparse) Cols() int { return s.cols }

// NNZ returns the number of stored entries.
func (s *Sparse) NNZ() int { return len(s.val) }

// At returns element (i, j) (O(log nnz(row))).
func (s *Sparse) At(i, j int) float64 {
	lo, hi := s.rowPtr[i], s.rowPtr[i+1]
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case s.colIdx[mid] < j:
			lo = mid + 1
		case s.colIdx[mid] > j:
			hi = mid
		default:
			return s.val[mid]
		}
	}
	return 0
}

// MulVec returns A·x.
func (s *Sparse) MulVec(x []float64) []float64 {
	if len(x) != s.cols {
		panic(fmt.Sprintf("matrix: sparse MulVec dimension mismatch %d vs %d", len(x), s.cols))
	}
	y := make([]float64, s.rows)
	for i := 0; i < s.rows; i++ {
		var acc float64
		for p := s.rowPtr[i]; p < s.rowPtr[i+1]; p++ {
			acc += s.val[p] * x[s.colIdx[p]]
		}
		y[i] = acc
	}
	return y
}

// VecMul returns xᵀ·A.
func (s *Sparse) VecMul(x []float64) []float64 {
	if len(x) != s.rows {
		panic(fmt.Sprintf("matrix: sparse VecMul dimension mismatch %d vs %d", len(x), s.rows))
	}
	y := make([]float64, s.cols)
	for i := 0; i < s.rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		for p := s.rowPtr[i]; p < s.rowPtr[i+1]; p++ {
			y[s.colIdx[p]] += xi * s.val[p]
		}
	}
	return y
}

// RowRange calls fn(j, v) for each stored entry of row i.
func (s *Sparse) RowRange(i int, fn func(j int, v float64)) {
	for p := s.rowPtr[i]; p < s.rowPtr[i+1]; p++ {
		fn(s.colIdx[p], s.val[p])
	}
}

// FromDense builds a CSR copy of d storing exactly its non-zero entries,
// in row-major order. Because the dense Mul kernel skips zero left-hand
// coefficients, a product through the CSR form touches the same terms in
// the same order as the dense product — the sparse kernels below are
// bitwise-identical to their dense counterparts, not just close.
func FromDense(d *Dense) *Sparse {
	s := &Sparse{rows: d.rows, cols: d.cols, rowPtr: make([]int, d.rows+1)}
	nnz := 0
	for _, v := range d.data {
		if v != 0 {
			nnz++
		}
	}
	s.colIdx = make([]int, 0, nnz)
	s.val = make([]float64, 0, nnz)
	for i := 0; i < d.rows; i++ {
		row := d.data[i*d.cols : (i+1)*d.cols]
		for j, v := range row {
			if v != 0 {
				s.colIdx = append(s.colIdx, j)
				s.val = append(s.val, v)
			}
		}
		s.rowPtr[i+1] = len(s.val)
	}
	return s
}

// ToDense materializes the matrix.
func (s *Sparse) ToDense() *Dense {
	d := New(s.rows, s.cols)
	for i := 0; i < s.rows; i++ {
		row := d.data[i*s.cols : (i+1)*s.cols]
		for p := s.rowPtr[i]; p < s.rowPtr[i+1]; p++ {
			row[s.colIdx[p]] = s.val[p]
		}
	}
	return d
}

// Density returns nnz/(rows·cols), 0 for an empty matrix.
func (s *Sparse) Density() float64 {
	if s.rows == 0 || s.cols == 0 {
		return 0
	}
	return float64(len(s.val)) / (float64(s.rows) * float64(s.cols))
}

// MulDenseTo computes C = S·B (CSR × dense) into dst, which must be
// s.rows×b.cols and must not alias b. For each destination element the
// stored-entry products accumulate in ascending k — exactly the terms and
// order of MulTo(dst, s.ToDense(), b), which skips the same zero
// coefficients, so the result is bitwise identical to the dense product.
func (s *Sparse) MulDenseTo(dst, b *Dense) *Dense {
	if s.cols != b.rows {
		panic(fmt.Sprintf("matrix: MulDenseTo dimension mismatch %dx%d · %dx%d", s.rows, s.cols, b.rows, b.cols))
	}
	if dst.rows != s.rows || dst.cols != b.cols {
		panic(fmt.Sprintf("matrix: MulDenseTo into %dx%d, want %dx%d", dst.rows, dst.cols, s.rows, b.cols))
	}
	noAlias(dst, b, "MulDenseTo")
	dst.Zero()
	bc := b.cols
	for i := 0; i < s.rows; i++ {
		ci := dst.data[i*bc : (i+1)*bc]
		for p := s.rowPtr[i]; p < s.rowPtr[i+1]; p++ {
			axpyRow(ci, s.val[p], b.data[s.colIdx[p]*bc:(s.colIdx[p]+1)*bc])
		}
	}
	return dst
}

// MulDense returns S·B.
func (s *Sparse) MulDense(b *Dense) *Dense {
	return s.MulDenseTo(New(s.rows, b.cols), b)
}

// MulCSRTo computes C = A·S (dense × CSR) into dst, which must be
// a.rows×s.cols and must not alias a. Per destination row, terms
// accumulate in ascending k with a's zero coefficients skipped; the
// stored entries of S are the non-zero entries of the equivalent dense
// right operand, and on the finite, non-negative inputs the QBD path
// feeds it the omitted zero terms cannot perturb any accumulated sum, so
// the result is bitwise identical to the dense product (the sparse
// property tests pin this at 0 ULP).
func MulCSRTo(dst, a *Dense, s *Sparse) *Dense {
	if a.cols != s.rows {
		panic(fmt.Sprintf("matrix: MulCSRTo dimension mismatch %dx%d · %dx%d", a.rows, a.cols, s.rows, s.cols))
	}
	if dst.rows != a.rows || dst.cols != s.cols {
		panic(fmt.Sprintf("matrix: MulCSRTo into %dx%d, want %dx%d", dst.rows, dst.cols, a.rows, s.cols))
	}
	noAlias(dst, a, "MulCSRTo")
	dst.Zero()
	sc := s.cols
	for i := 0; i < a.rows; i++ {
		ci := dst.data[i*sc : (i+1)*sc]
		ai := a.data[i*a.cols : (i+1)*a.cols]
		for k, aik := range ai {
			if aik == 0 {
				continue
			}
			for p := s.rowPtr[k]; p < s.rowPtr[k+1]; p++ {
				ci[s.colIdx[p]] += aik * s.val[p]
			}
		}
	}
	return dst
}

// MulCSR returns A·S.
func MulCSR(a *Dense, s *Sparse) *Dense {
	return MulCSRTo(New(a.rows, s.cols), a, s)
}
