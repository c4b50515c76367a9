package qbd

import (
	"fmt"
	"math"

	"repro/internal/certify"
	"repro/internal/matrix"
)

// Solution is the stationary distribution of a QBD process in
// matrix-geometric form (Theorem 4.2): explicit boundary vectors
// π₀ … π_{b−1}, the first repeating-level vector π_b, and the rate matrix
// R with π_{b+n} = π_b·Rⁿ.
type Solution struct {
	Process  *Process
	R        *matrix.Dense
	Boundary [][]float64 // π_0 .. π_{b-1}
	PiB      []float64   // π_b, first repeating level

	// Cert is the post-hoc validity record: fixed-point residual of R,
	// spectral-radius bound (tight to rounding wherever its
	// Collatz–Wielandt bracket closes, so it doubles as the tail decay
	// rate sp(R)), probability-mass and boundary-balance checks, plus the
	// fallback path that produced R. Every Solution returned without
	// error carries a verified certificate.
	Cert *certify.Certificate

	sumR         *matrix.Dense // (I−R)⁻¹, cached
	sumR2        *matrix.Dense // (I−R)⁻², cached
	tailE        []float64     // (I−R)⁻¹·e, cached
	levels       [][]float64   // π_b·Rᵏ memo; levels[0] aliases PiB
	boundaryCond float64       // cond∞ estimate of the boundary system
}

// Solve computes the stationary distribution. It verifies the drift
// condition first and returns ErrUnstable when it fails; every other
// failure is a typed *certify.Failure locating the stage that died. On
// success the result has been certified — residual, mass, balance — and
// carries the certificate.
func Solve(p *Process, opts RMatrixOptions) (*Solution, error) {
	if err := p.Validate(1e-8); err != nil {
		return nil, &certify.Failure{Kind: certify.ErrConfig, Stage: "qbd.validate", Err: err}
	}
	stable, err := p.Stable()
	if err != nil {
		return nil, &certify.Failure{Kind: certify.ErrConfig, Stage: "qbd.drift", Err: err}
	}
	if !stable {
		return nil, ErrUnstable
	}
	opts = opts.withDefaults()
	ws := opts.workspace()
	opts.Workspace = ws
	tol := opts.certTol()
	r, cert, err := rMatrixLadder(p.A0, p.A1, p.A2, opts, &tol)
	if err != nil {
		return nil, err
	}
	// matrix.SpectralRadiusUpperBoundWS: rigorous, and immune to the
	// eigenvalue clustering that can stall power iteration. The ladder
	// already computed it into the certificate (same call, same bits).
	if cert.SpectralRadius >= 1 {
		return nil, ErrUnstable
	}
	sol, err := solveBoundary(p, r, ws)
	if err != nil {
		return nil, &certify.Failure{Kind: certify.ErrSingularBoundary, Stage: "qbd.boundary", Err: err}
	}
	completeCertificate(cert, p, sol)
	sol.Cert = cert
	if verr := cert.Verify(); verr != nil {
		return nil, verr
	}
	return sol, nil
}

// completeCertificate fills the boundary-level fields of an R-level
// certificate from the solved stationary vectors: total mass, most
// negative entry, balance residual at the first repeating level, the
// boundary system's condition estimate, and full finiteness.
func completeCertificate(cert *certify.Certificate, p *Process, sol *Solution) {
	cert.TotalMass = sol.TotalMass()
	cert.BoundaryCond = sol.boundaryCond
	min := 0.0
	finite := cert.Finite
	scan := func(v []float64) {
		if !matrix.FiniteVec(v) {
			finite = false
		}
		for _, x := range v {
			if x < min {
				min = x
			}
		}
	}
	for _, v := range sol.Boundary {
		scan(v)
	}
	scan(sol.PiB)
	cert.MinEntry = min
	cert.Finite = finite
	cert.BoundaryResidual = boundaryResidual(p, sol)
}

// boundaryResidual checks global balance at the first repeating level b —
// the one equation set that exercises the boundary vectors, R, and the
// folded tail together: ‖π_{b−1}·Up + π_b·A₁ + π_{b+1}·A₂‖∞, relative to
// the generator's rate scale ‖A₁‖∞. A healthy solve leaves this at
// roundoff level; a contaminated or mass-losing one does not.
func boundaryResidual(p *Process, sol *Solution) float64 {
	b := p.Boundary()
	local := matrix.VecMul(sol.PiB, p.A1.Dense())
	prev := sol.Boundary[b-1] // π_{b−1}: last boundary vector (b ≥ 1 by construction)
	up := matrix.VecMul(prev, p.Up[b-1])
	down := matrix.VecMul(sol.repeatLevel(1), p.A2.Dense())
	scale := p.A1.InfNorm()
	if scale == 0 {
		scale = 1
	}
	var mx float64
	for i := range local {
		if v := math.Abs(local[i] + up[i] + down[i]); v > mx {
			mx = v
		}
	}
	return mx / scale
}

// solveBoundary assembles the finite linear system of paper eqs. (21)–(22)
// and (24)–(27): global balance for levels 0..b with π_{b+1} = π_b·R
// substituted, plus the normalization constraint replacing one redundant
// balance equation.
func solveBoundary(p *Process, r *matrix.Dense, ws *matrix.Workspace) (*Solution, error) {
	b := p.Boundary()
	n := p.RepeatDim()
	dims := make([]int, b+1)
	offs := make([]int, b+1)
	total := 0
	for i := 0; i <= b; i++ {
		if i < b {
			dims[i] = p.Local[i].Rows()
		} else {
			dims[i] = n
		}
		offs[i] = total
		total += dims[i]
	}

	sumR, err := matrix.GeometricTailSum(r)
	if err != nil {
		return nil, fmt.Errorf("qbd: I − R singular: %w", err)
	}

	// Unknown x = (π_0, …, π_b) as a row vector; equations as columns of M:
	// x·M = rhs. Column block j holds the balance equations of level j.
	m := ws.Get(total, total)
	for j := 0; j < b; j++ {
		// Level j receives: from j−1 via Up[j−1], from j via Local[j],
		// from j+1 via Down[j+1].
		if j > 0 {
			embedAt(m, offs[j-1], offs[j], p.Up[j-1])
		}
		embedAt(m, offs[j], offs[j], p.Local[j])
		embedAt(m, offs[j+1], offs[j], p.Down[j+1])
	}
	// Level b: from b−1 via Up[b−1]; local A1 plus the folded-in flow from
	// level b+1: π_{b+1}·A₂ = π_b·R·A₂.
	embedAt(m, offs[b-1], offs[b], p.Up[b-1])
	ra2 := ws.Get(n, n)
	p.A2.MulFromLeftTo(ra2, r) // R·A₂, through whatever representation A₂ has
	matrix.AddTo(ra2, p.A1.Dense(), ra2)
	embedAt(m, offs[b], offs[b], ra2)
	ws.Put(ra2)

	// Replace the first column with the normalization:
	// Σ_{i<b} π_i·e + π_b·(I−R)⁻¹·e = 1.
	for i := 0; i < total; i++ {
		m.Set(i, 0, 1)
	}
	tailE := matrix.MulVec(sumR, matrix.Ones(n))
	for i := 0; i < n; i++ {
		m.Set(offs[b]+i, 0, tailE[i])
	}

	rhs := make([]float64, total)
	rhs[0] = 1
	// Solve x·M = rhs ⟺ Mᵀ·xᵀ = rhs. x escapes into the Solution, so it
	// is freshly allocated by SolveVec; the system matrices are scratch.
	mt := matrix.TransposeTo(ws.Get(total, total), m)
	lu := ws.GetLU(total)
	luErr := lu.Reset(mt)
	var x []float64
	var cond float64
	if luErr == nil {
		x = lu.SolveVec(rhs)
		// Hager–Higham estimate from the factorization already in hand;
		// read-only on the LU, so x is untouched.
		cond = lu.CondInfEstimate(mt.InfNorm())
	}
	ws.Put(m, mt)
	ws.PutLU(lu)
	if luErr != nil {
		return nil, fmt.Errorf("qbd: boundary system singular (reducible boundary?): %w", luErr)
	}
	sol := &Solution{Process: p, R: r, PiB: x[offs[b] : offs[b]+n], sumR: sumR, tailE: tailE, boundaryCond: cond}
	for i := 0; i < b; i++ {
		sol.Boundary = append(sol.Boundary, x[offs[i]:offs[i]+dims[i]])
	}
	// Clamp tiny negatives from roundoff.
	for _, v := range sol.Boundary {
		clampNonNeg(v)
	}
	clampNonNeg(sol.PiB)
	return sol, nil
}

func clampNonNeg(v []float64) {
	for i, x := range v {
		if x < 0 && x > -1e-9 {
			v[i] = 0
		}
	}
}

func embedAt(m *matrix.Dense, r0, c0 int, src *matrix.Dense) {
	for i := 0; i < src.Rows(); i++ {
		for j := 0; j < src.Cols(); j++ {
			if v := src.At(i, j); v != 0 {
				m.Add(r0+i, c0+j, v)
			}
		}
	}
}

func (s *Solution) tail2() (*matrix.Dense, error) {
	if s.sumR2 == nil {
		s.sumR2 = matrix.Mul(s.sumR, s.sumR)
	}
	return s.sumR2, nil
}

// repeatLevel returns the memoized π_{b+k} = π_b·Rᵏ (k ≥ 0). Each vector
// is computed once from its predecessor — exactly the product chain Level
// used to redo from π_b on every call, so memoization changes no bits,
// only the asymptotic cost of walking the repeating levels (the effective-
// quantum extraction reads hundreds of consecutive levels per solve).
// The returned slice is shared; callers must not mutate it.
func (s *Solution) repeatLevel(k int) []float64 {
	if len(s.levels) == 0 {
		s.levels = append(s.levels, s.PiB)
	}
	for len(s.levels) <= k {
		s.levels = append(s.levels, matrix.VecMul(s.levels[len(s.levels)-1], s.R))
	}
	return s.levels[k]
}

// Level returns a copy of π_i for any level i ≥ 0.
func (s *Solution) Level(i int) []float64 {
	return append([]float64(nil), s.level(i)...)
}

// LevelTo copies π_i into dst, which must have the level's dimension, and
// returns dst. Once the level is memoized it allocates nothing.
func (s *Solution) LevelTo(dst []float64, i int) []float64 {
	v := s.level(i)
	if len(dst) != len(v) {
		panic(fmt.Sprintf("qbd: LevelTo level %d into %d, want %d", i, len(dst), len(v)))
	}
	copy(dst, v)
	return dst
}

// level returns π_i, shared with s: callers must not mutate it.
func (s *Solution) level(i int) []float64 {
	b := s.Process.Boundary()
	if i < b {
		return s.Boundary[i]
	}
	return s.repeatLevel(i - b)
}

// LevelMass returns P[level = i].
func (s *Solution) LevelMass(i int) float64 { return matrix.VecSum(s.Level(i)) }

// MeanLevel returns E[level] — for the gang model, the mean number of
// class-p jobs in the system (paper eq. 37):
//
//	N = Σ_{i<b} i·π_i·e + b·π_b·(I−R)⁻¹·e + π_b·(I−R)⁻²·R·e
func (s *Solution) MeanLevel() (float64, error) {
	b := s.Process.Boundary()
	var nbar float64
	for i := 1; i < b; i++ {
		nbar += float64(i) * matrix.VecSum(s.Boundary[i])
	}
	nbar += float64(b) * matrix.Dot(s.PiB, s.tailE)
	t2, err := s.tail2()
	if err != nil {
		return 0, err
	}
	re := s.R.RowSums()
	nbar += matrix.Dot(s.PiB, matrix.MulVec(t2, re))
	return nbar, nil
}

// WeightedMean returns E[w(state)] for a per-state weight that is
// explicit on the boundary and affine in the level on the repeating
// portion: w(level b+n, phase s) = repeatBase[s] + n·slope. Used when the
// QBD's levels are super-levels (e.g. batch-arrival reblocking) and the
// physical quantity is an affine function of the level index:
//
//	Σ_{i<b} π_i·boundary_i + π_b(I−R)⁻¹·repeatBase + slope·π_b·R(I−R)⁻²·e
func (s *Solution) WeightedMean(boundary [][]float64, repeatBase []float64, slope float64) float64 {
	b := s.Process.Boundary()
	if len(boundary) != b {
		panic(fmt.Sprintf("qbd: %d boundary weight vectors for %d boundary levels", len(boundary), b))
	}
	var mean float64
	for i := 0; i < b; i++ {
		if len(boundary[i]) != len(s.Boundary[i]) {
			panic(fmt.Sprintf("qbd: boundary weight %d has %d entries, want %d", i, len(boundary[i]), len(s.Boundary[i])))
		}
		mean += matrix.Dot(s.Boundary[i], boundary[i])
	}
	mean += matrix.Dot(s.PiB, matrix.MulVec(s.sumR, repeatBase))
	if slope != 0 {
		t2, _ := s.tail2()
		re := s.R.RowSums()
		mean += slope * matrix.Dot(s.PiB, matrix.MulVec(t2, re))
	}
	return mean
}

// TailProb returns P[level ≥ k].
func (s *Solution) TailProb(k int) float64 {
	b := s.Process.Boundary()
	var below float64
	for i := 0; i < b && i < k; i++ {
		below += matrix.VecSum(s.Boundary[i])
	}
	if k <= b {
		// Everything from level k to b−1 counted above; add full tail.
		tail := matrix.Dot(s.PiB, s.tailE)
		return clampProb(tail + boundaryMassBetween(s, k, b))
	}
	// k > b: tail = π_b·R^{k−b}·(I−R)⁻¹·e.
	v := s.repeatLevel(k - b)
	return clampProb(matrix.Dot(v, s.tailE))
}

func boundaryMassBetween(s *Solution, lo, hi int) float64 {
	var m float64
	for i := lo; i < hi; i++ {
		m += matrix.VecSum(s.Boundary[i])
	}
	return m
}

func clampProb(p float64) float64 {
	switch {
	case p < 0:
		return 0
	case p > 1:
		return 1
	}
	return p
}

// TotalMass returns the total probability mass (should be 1); exposed as a
// numerical self-check.
func (s *Solution) TotalMass() float64 {
	b := s.Process.Boundary()
	var t float64
	for i := 0; i < b; i++ {
		t += matrix.VecSum(s.Boundary[i])
	}
	t += matrix.Dot(s.PiB, s.tailE)
	return t
}

// PhaseMarginalRepeating returns Σ_{i≥b} π_i = π_b·(I−R)⁻¹, the stationary
// phase distribution aggregated over the repeating levels.
func (s *Solution) PhaseMarginalRepeating() []float64 {
	return matrix.VecMul(s.PiB, s.sumR)
}
