package matrix

import (
	"fmt"
	"math"
)

// BandLU assembles and factorizes a square matrix with lower bandwidth p
// and upper bandwidth q (a[i][j] = 0 unless −p ≤ j−i ≤ q) in band
// storage: P·A = L·U with partial pivoting, in O(n·p·(p+q)) time and
// O(n·(p+q)) space, where LU on the dense matrix takes O(n²·p) and
// O(n²).
//
// It runs exactly LU's pivoted elimination, so whenever LU's solution is
// finite BandLU's is bitwise the same. Every operation it skips involves
// an exact zero outside the band: a pivot candidate below row k+p, a
// multiplier of a row below k+p, an update of a column past the pivot
// row's last non-zero, or a substitution term whose factor is zero. A
// skipped candidate never wins LU's strict-> pivot search, a zero
// multiplier is skipped by LU too, and a ±0 term added to a sum that
// starts at +0 changes neither its value nor its sign. (An overflow to
// ±Inf breaks the last point: LU's 0·Inf is NaN, so its solution is
// not finite.)
//
// Storage. Row i holds columns i−p … i+p+q at offsets 0 … 2p+q. The
// assembled matrix fills columns i−p … i+q; pivoting widens U by p, and
// the row at position r ∈ [k, k+p] of elimination step k can hold the
// pivot row's columns k … k+p+q. A row swap exchanges just those
// columns.
//
// Multipliers. LU swaps whole rows, multipliers included, and its
// forward substitution sums each packed L row from left to right, so
// position i's sum runs over the multipliers of the row that ends at i,
// in elimination order — and pivoting can carry a row arbitrarily far
// below its starting position, collecting one multiplier per step on
// the way. BandLU therefore keeps each row's non-zero multipliers as a
// linked list, keyed by the row's index in A and appended in
// elimination order, in flat arrays that hold at most n·p entries.
//
// A BandLU is reusable: Reset resizes it for a new order and bandwidths,
// and its buffers only grow, so one BandLU serving systems of varying
// size allocates only when it outgrows every earlier one.
type BandLU struct {
	n, p, q int
	w       int       // row width 2p+q+1
	a       []float64 // n rows of width w; column j of row i at i·w + j−i+p
	piv     []int     // row i of the factorization came from row piv[i] of A
	head    []int     // head[r]: first multiplier of A's row r, or −1
	tail    []int     // tail[r]: last multiplier of A's row r, or −1
	mult    []bandMultiplier
}

// bandMultiplier is one non-zero entry of L: the multiplier m that
// eliminated column col from a row, linked to that row's next one.
type bandMultiplier struct {
	m         float64
	col, next int
}

// Reset sizes f for an order-n matrix with lower bandwidth p and upper
// bandwidth q, and zeroes it for assembly with Add. Bandwidths above
// n−1 are clamped.
func (f *BandLU) Reset(n, p, q int) {
	if n < 0 || p < 0 || q < 0 {
		panic(fmt.Sprintf("matrix: BandLU.Reset(%d, %d, %d) with a negative argument", n, p, q))
	}
	p, q = min(p, max(n-1, 0)), min(q, max(n-1, 0))
	f.n, f.p, f.q, f.w = n, p, q, 2*p+q+1
	f.a = grow(f.a, n*f.w)
	clear(f.a)
	f.piv = grow(f.piv, n)
	f.head = grow(f.head, n)
	f.tail = grow(f.tail, n)
	for i := range f.piv {
		f.piv[i], f.head[i], f.tail[i] = i, -1, -1
	}
	if cap(f.mult) < n*p {
		f.mult = make([]bandMultiplier, 0, n*p)
	}
	f.mult = f.mult[:0]
}

// grow re-slices buf to length n, reallocating only when it is too
// short; the contents are unspecified.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// Add adds v to a[i][j], which must lie inside the band. Valid between
// Reset and Factorize.
func (f *BandLU) Add(i, j int, v float64) {
	if i < 0 || i >= f.n || j < 0 || j >= f.n || j-i < -f.p || j-i > f.q {
		panic(fmt.Sprintf("matrix: BandLU.Add(%d, %d) outside the order-%d band (%d below, %d above)", i, j, f.n, f.p, f.q))
	}
	f.a[i*f.w+j-i+f.p] += v
}

// At returns a[i][j], zero outside the band. Valid between Reset and
// Factorize, which overwrites the storage with the factors.
func (f *BandLU) At(i, j int) float64 {
	if i < 0 || i >= f.n || j < 0 || j >= f.n {
		panic(fmt.Sprintf("matrix: BandLU.At(%d, %d) out of range for order %d", i, j, f.n))
	}
	if j-i < -f.p || j-i > f.q {
		return 0
	}
	return f.a[i*f.w+j-i+f.p]
}

// Factorize factorizes the assembled matrix in place, with LU's pivot
// rule: the first largest |a[i][k]| over rows k … k+p. It returns
// ErrSingular when that column is all zero; f then holds no valid
// factorization until the next Reset.
func (f *BandLU) Factorize() error {
	n, p, w := f.n, f.p, f.w
	a := f.a
	for k := 0; k < n; k++ {
		last := min(n-1, k+p) // rows below last are zero in column k
		r, mx := k, math.Abs(a[k*w+p])
		for i := k + 1; i <= last; i++ {
			if v := math.Abs(a[i*w+k-i+p]); v > mx {
				r, mx = i, v
			}
		}
		if mx == 0 {
			return ErrSingular
		}
		// The pivot row is zero past column k+p+q.
		rowk := a[k*w+p : k*w+p+min(n-k, p+f.q+1)]
		if r != k {
			rowr := a[r*w+k-r+p:][:len(rowk)]
			for j := range rowk {
				rowk[j], rowr[j] = rowr[j], rowk[j]
			}
			f.piv[k], f.piv[r] = f.piv[r], f.piv[k]
		}
		pivot := rowk[0]
		for i := k + 1; i <= last; i++ {
			rowi := a[i*w+k-i+p:][:len(rowk)]
			m := rowi[0] / pivot
			if m == 0 {
				continue
			}
			f.appendMultiplier(f.piv[i], k, m)
			elimRow(rowi[1:], rowk[1:], m)
		}
	}
	return nil
}

// appendMultiplier appends multiplier m of column col to the list of
// A's row r.
func (f *BandLU) appendMultiplier(r, col int, m float64) {
	e := len(f.mult)
	f.mult = append(f.mult, bandMultiplier{m: m, col: col, next: -1})
	if t := f.tail[r]; t < 0 {
		f.head[r] = e
	} else {
		f.mult[t].next = e
	}
	f.tail[r] = e
}

// SolveVecTo solves A·x = b into dst, which must not alias b, with LU's
// substitution order, and returns dst.
func (f *BandLU) SolveVecTo(dst, b []float64) []float64 {
	n, p, w := f.n, f.p, f.w
	if len(b) != n {
		panic(fmt.Sprintf("matrix: BandLU.SolveVecTo length mismatch %d vs %d", len(b), n))
	}
	if len(dst) != n {
		panic(fmt.Sprintf("matrix: BandLU.SolveVecTo into %d, want %d", len(dst), n))
	}
	if n > 0 && &dst[0] == &b[0] {
		panic("matrix: BandLU.SolveVecTo destination aliases b")
	}
	x := dst
	for i, r := range f.piv {
		x[i] = b[r]
	}
	// Forward substitution with unit lower triangle: position i's row of
	// L is the multiplier list of the row of A that ended there.
	for i := 1; i < n; i++ {
		var s float64
		for e := f.head[f.piv[i]]; e >= 0; e = f.mult[e].next {
			s += f.mult[e].m * x[f.mult[e].col]
		}
		x[i] -= s
	}
	// Back substitution over U's p+q superdiagonals.
	for i := n - 1; i >= 0; i-- {
		row := f.a[i*w+p+1 : i*w+p+1+min(n-1-i, p+f.q)]
		var s float64
		for j, v := range row {
			s += v * x[i+1+j]
		}
		x[i] = (x[i] - s) / f.a[i*w+p]
	}
	return x
}
