package matrix

import (
	"errors"
	"math"
)

// ErrNoConverge is returned when an iterative method fails to converge
// within its iteration budget.
var ErrNoConverge = errors.New("matrix: iteration did not converge")

// SpectralRadius estimates the spectral radius of a square non-negative
// matrix by power iteration on a strictly positive start vector. For the
// rate matrices R arising in QBD analysis the dominant eigenvalue is real
// and non-negative (Perron-Frobenius), so power iteration is appropriate.
//
// tol is the relative change in the eigenvalue estimate at which iteration
// stops; maxIter bounds the work.
func SpectralRadius(a *Dense, tol float64, maxIter int) (float64, error) {
	if a.rows != a.cols {
		panic("matrix: SpectralRadius of non-square matrix")
	}
	n := a.rows
	if n == 0 {
		return 0, nil
	}
	// Shift by ε·I: for non-negative A, sp(A+εI) = sp(A)+ε and the Perron
	// root becomes the unique dominant eigenvalue, so power iteration
	// cannot oscillate on periodic block structure.
	shift := 0.05 * math.Max(a.InfNorm(), 1e-6)
	shifted := Sum(a, Scaled(shift, Identity(n)))
	x := make([]float64, n)
	for i := range x {
		x[i] = 1 / float64(n)
	}
	prev := 0.0
	for iter := 0; iter < maxIter; iter++ {
		y := MulVec(shifted, x)
		norm := 0.0
		for _, v := range y {
			norm += math.Abs(v)
		}
		if norm == 0 {
			return 0, nil // nilpotent direction: radius 0 for non-negative a
		}
		for i := range y {
			y[i] /= norm
		}
		x = y
		if iter > 0 && math.Abs(norm-prev) <= tol*math.Max(norm, 1e-300) {
			return math.Max(norm-shift, 0), nil
		}
		prev = norm
	}
	return math.Max(prev-shift, 0), ErrNoConverge
}

// GeometricTailSum returns (I − R)⁻¹ for a matrix with sp(R) < 1,
// the closed form of the series Σ_{k≥0} Rᵏ.
func GeometricTailSum(r *Dense) (*Dense, error) {
	return Inverse(Diff(Identity(r.Rows()), r))
}

// SpectralRadiusUpperBound returns a rigorous upper bound on the spectral
// radius of a by repeated squaring. Each normalized power a^{2^k} gives
// a Gelfand partial ‖a^{2^k}‖∞^{1/2^k} ≥ sp(a), and for a non-negative a
// its row sums also give a Collatz–Wielandt bracket around sp(a) (see
// spectralBound). The loop stops once the bracket has closed to within
// rounding; for a QBD rate matrix that takes a few squarings, and none
// when a·e is a multiple of e. A matrix with a negative entry, or one
// whose bracket never closes (periodic or defective), runs all
// `squarings` steps, and unlike power iteration the chain cannot stall
// on clustered or complex eigenvalues. A NaN or ±Inf entry gives +Inf.
func SpectralRadiusUpperBound(a *Dense, squarings int) float64 {
	return SpectralRadiusUpperBoundWS(a, squarings, NewWorkspace())
}

// SpectralRadiusUpperBoundWS is SpectralRadiusUpperBound with all scratch
// drawn from ws, so repeated bounds in a solver loop allocate nothing.
func SpectralRadiusUpperBoundWS(a *Dense, squarings int, ws *Workspace) float64 {
	b, _ := spectralBound(a, 0, squarings, ws)
	return b
}

// SpectralRadiusUpperBoundWithinWS is SpectralRadiusUpperBoundWS that also
// stops as soon as its bound falls below limit: for a comfortably stable
// matrix that is the free k = 0 partial, ‖a‖∞. The result is always a
// valid upper bound on sp(a), but once below limit it is no tighter than
// the caller asked for, so it must not be recorded where a tight bound is
// expected. It serves acceptance gates that only need the < limit
// verdict, like the Newton rung on the raw RMatrix entry points. With
// limit 0 it is SpectralRadiusUpperBoundWS.
func SpectralRadiusUpperBoundWithinWS(a *Dense, limit float64, maxSquarings int, ws *Workspace) float64 {
	b, _ := spectralBound(a, limit, maxSquarings, ws)
	return b
}

// bracketFloor keeps the Collatz–Wielandt bracket clear of underflow.
// With every kept row sum and the upper ratio at or above it, products
// flushed to zero move a ratio by under n·2⁻⁷⁵ relative, far inside the
// rounding allowance.
const bracketFloor = 0x1p-500

// spectralBound is the squaring loop behind the entry points. It returns
// the bound and the number of squarings it ran.
//
// Step k holds m = a^{2^k}/c, where c > 0 collects the normalizations,
// and the Gelfand partial ‖a^{2^k}‖∞^{1/2^k}, accumulated in logarithms
// (at k = 0 it is ‖a‖∞ itself). For a matrix with a negative entry that
// is all there is: the result is the partial at k = maxSquarings, or the
// first one below limit.
//
// For a non-negative a, step k also brackets sp(a) with the row sums
// x = m·e that the ∞-norm has just computed. Rows of a that are exactly
// zero are dropped: they stay zero in every power, so x_i = 0 there,
// and they form a zero diagonal block, so the other rows' principal
// submatrix has the same spectral radius. On the kept rows, where x > 0,
//
//	U = max_i (a·x)_i / x_i ≥ sp(a)
//	L = min_{i∈S} (a_SS·x_S)_i / x_i ≤ sp(a_SS) ≤ sp(a)
//
// are Collatz–Wielandt bounds. The rounding allowance α = (n+2)·2⁻⁵²
// covers the rounding of (a·x)_i, of the ratio and of the inflation, so
// U·(1+α) ≥ sp(a) holds in floating point. S is the rows whose ratio is
// within α of U: restricting L to them lets it reach sp(a) on a
// reducible matrix, whose lagging rows converge to a smaller block's
// radius. The loop stops once L ≥ U·(1−α), when U·(1+α) is within about
// 3α of sp(a). x turns to the Perron direction doubly exponentially in
// k, so that takes a few squarings, and none when a·e is a multiple of
// e. The partials from k = 1 on are inflated too, by α plus their
// log/exp round trip's rounding, so one that has converged onto sp(a)
// cannot round below it. The result is the least partial or inflated U
// seen, each of them an upper bound on sp(a).
func spectralBound(a *Dense, limit float64, maxSquarings int, ws *Workspace) (bound float64, squarings int) {
	if a.rows != a.cols {
		panic("matrix: spectral bound of non-square matrix")
	}
	n := a.rows
	if n == 0 {
		return 0, 0
	}
	nonneg := true
	for _, v := range a.data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return math.Inf(1), 0
		}
		if v < 0 {
			nonneg = false
		}
	}
	m := ws.Get(n, n).CopyFrom(a)
	sq := ws.Get(n, n)
	// rows holds a's row sums (zero exactly on the dropped rows), x the
	// current power's, r the ratios and z the vector x_S.
	var rows, x, r, z []float64
	if nonneg {
		rows, x, r, z = ws.GetVec(n), ws.GetVec(n), ws.GetVec(n), ws.GetVec(n)
		rowSumsTo(rows, a)
	}
	defer func() {
		ws.Put(m, sq)
		ws.PutVec(rows, x, r, z)
	}()
	alpha := float64(n+2) * 0x1p-52 // the rounding allowance α
	best := math.Inf(1)
	logBound, weight := 0.0, 1.0
	for k := 0; ; k++ {
		var norm float64
		if nonneg {
			norm = rowSumsTo(x, m)
		} else {
			norm = m.InfNorm()
		}
		if norm == 0 {
			return 0, k
		}
		partial := norm
		if k > 0 {
			lp := logBound + weight*math.Log(norm)
			partial = math.Exp(lp)
			if nonneg {
				partial *= 1 + alpha + (math.Abs(lp)+2)*0x1p-53
			}
		}
		if nonneg {
			best = min(best, partial)
		} else {
			best = partial
		}
		if best < limit || math.IsInf(norm, 1) {
			return best, k
		}
		if nonneg {
			upper, closed := collatzWielandt(a, alpha, rows, x, r, z)
			best = min(best, upper)
			if closed || best < limit {
				return best, k
			}
		}
		// The next normalization must not overflow.
		if k == maxSquarings || math.IsInf(1/norm, 1) {
			return best, k
		}
		logBound += weight * math.Log(norm)
		weight /= 2
		ScaledTo(m, 1/norm, m)
		MulTo(sq, m, m)
		m, sq = sq, m
	}
}

// collatzWielandt is one bracket step of spectralBound for a
// non-negative a with rounding allowance alpha: rows are a's row sums,
// x the current power's, and r and z are scratch. It returns U·(1+α)
// and whether L ≥ U·(1−α), or +Inf and false when a kept x_i or U is
// below bracketFloor or U overflows.
func collatzWielandt(a *Dense, alpha float64, rows, x, r, z []float64) (upper float64, closed bool) {
	n := a.rows
	for i, xi := range x {
		if rows[i] == 0 {
			continue
		}
		if xi < bracketFloor {
			return math.Inf(1), false
		}
		r[i] = Dot(a.data[i*n:(i+1)*n], x) / xi
		upper = max(upper, r[i])
	}
	if upper < bracketFloor || math.IsInf(upper, 1) {
		return math.Inf(1), false
	}
	cut := upper * (1 - alpha)
	for i, xi := range x {
		z[i] = 0
		if rows[i] != 0 && r[i] >= cut {
			z[i] = xi
		}
	}
	for i, zi := range z {
		if zi != 0 && Dot(a.data[i*n:(i+1)*n], z)/zi < cut {
			return upper * (1 + alpha), false
		}
	}
	return upper * (1 + alpha), true
}

// rowSumsTo writes the row sums of a non-negative m into x and returns
// the largest, bitwise m.InfNorm().
func rowSumsTo(x []float64, m *Dense) float64 {
	var mx float64
	for i := range x {
		var s float64
		for _, v := range m.data[i*m.cols : (i+1)*m.cols] {
			s += v
		}
		x[i] = s
		if s > mx {
			mx = s
		}
	}
	return mx
}
