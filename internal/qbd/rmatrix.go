package qbd

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/certify"
	"repro/internal/certify/faultinject"
	"repro/internal/matrix"
)

// ErrUnstable is returned when a stationary solve is attempted on a process
// whose drift condition fails (sp(R) ≥ 1).
var ErrUnstable = errors.New("qbd: process is not positive recurrent")

// RMatrixOptions tune the R-matrix computation.
//
// Workspace is a pure fast-path option: every solver below runs the exact
// same sequence of rounded floating-point operations with or without it,
// so enabling reuse never changes a result bit. (Block representation is
// likewise never a semantics knob: the matrix.BlockOp implementations are
// pinned bitwise against the dense reference.)
type RMatrixOptions struct {
	Tol     float64 // sup-norm stopping tolerance (default 1e-12)
	MaxIter int     // iteration budget (default 10000)

	// Workspace, when non-nil, supplies the scratch matrices and LU
	// factorizations of the iteration. Passing one amortizes all interior
	// allocation across repeated solves (the fixed-point loop in
	// internal/core reuses one workspace for its whole run).
	Workspace *matrix.Workspace

	// Newton enables the certified Newton rung: cyclic reduction on the
	// uniformized quadratic, quadratically convergent where the classical
	// reductions are linear, with a certificate-gated early stop (the
	// increment norm decays quadratically, so stopping at √Tol leaves a
	// truncation error ≈ Tol that post-hoc certification then judges).
	// Off by default so the small-tier ladder order — and the cold sweep
	// artifacts pinned byte-identical across releases — never changes
	// unless a caller opts in. A Newton result always carries a
	// Certificate, even on the raw RMatrix/RMatrixOp entry points; a
	// rejected Newton attempt is recorded in the certificate path and the
	// ladder falls through to the unchanged classical rungs.
	Newton bool

	// NewtonMinOrder gates the Newton rung to block orders at or above
	// this bound (default 96). Below it the logarithmic-reduction rung's
	// fixed ~8-multiply iterations beat Newton's LU-per-step, so the
	// rung would only add certification overhead.
	NewtonMinOrder int

	// Ctx, when non-nil, lets the caller interrupt the iterative solvers
	// mid-iteration: every loop polls Ctx.Err() once per
	// cancelCheckInterval iterations, so a request deadline or a client
	// disconnect stops the work within a handful of iterations instead
	// of after the full budget. An interrupted solve fails with a typed
	// certify.ErrDeadline carrying the partial iteration count, and the
	// fallback ladder aborts immediately — no later rung restarts work
	// the caller no longer wants. Nil (the default, and the only state
	// benchmarks ever see) costs one nil-check per polled iteration.
	Ctx context.Context
}

func (o RMatrixOptions) withDefaults() RMatrixOptions {
	if o.Tol == 0 {
		o.Tol = 1e-12
	}
	if o.MaxIter == 0 {
		o.MaxIter = 10000
	}
	if o.NewtonMinOrder == 0 {
		o.NewtonMinOrder = 96
	}
	return o
}

func (o RMatrixOptions) workspace() *matrix.Workspace {
	if o.Workspace != nil {
		return o.Workspace
	}
	return matrix.NewWorkspace()
}

// cancelCheckInterval is how often (in iterations) the iterative solvers
// poll RMatrixOptions.Ctx. Each iteration is O(n³) kernel work, so one
// Ctx.Err() per eight iterations is unmeasurable on RMatrix/medium while
// bounding the overshoot past a deadline to a few iterations.
const cancelCheckInterval = 8

// iterTick is the per-iteration instrumentation gate shared by every
// iterative solver: the "qbd.iter" fault-injection point (tests inject
// per-iteration latency or errors through it; disarmed it is one atomic
// load) and the periodic cancellation poll. A non-nil return is a typed
// certify.ErrDeadline (cancellation) or the injected error, and aborts
// the current rung at iteration iter.
func iterTick(opts *RMatrixOptions, iter int) error {
	if err := faultinject.Fire("qbd.iter", iter); err != nil {
		return err
	}
	if opts.Ctx != nil && iter%cancelCheckInterval == 0 {
		if err := opts.Ctx.Err(); err != nil {
			return &certify.Failure{Kind: certify.ErrDeadline, Stage: "qbd.iterate",
				Iterations: iter, Err: err}
		}
	}
	return nil
}

// Uniformization margins: the rate constant c is the maximum exit rate
// inflated by the margin, so the discretized blocks stay strictly
// substochastic. The default margin reproduces the historical iteration
// bit-for-bit; the shifted margin is used by the regularized fallback
// rung, trading per-step progress for extra distance from the stochastic
// boundary when the tight discretization misbehaves numerically.
const (
	uniformizeMargin = 1.0000001
	shiftedMargin    = 1.01
)

// Fallback-ladder rung names, in the order they are attempted.
const (
	rungNewton       = "newton"
	rungLogReduction = "logreduction"
	rungSubstitution = "substitution"
	rungTightened    = "tightened"
	rungShifted      = "shifted"
)

// RMatrix computes the minimal non-negative solution of
// R²·A₂ + R·A₁ + A₀ = 0 (paper eq. 23) by logarithmic reduction on the
// uniformized blocks, falling back to successive substitution if reduction
// stalls. The same R solves both the CTMC and its uniformized DTMC
// equation, so we discretize first (§2.4) and work with substochastic
// blocks throughout. When both rungs fail, the returned error joins each
// rung's failure (errors.Join) under certify.ErrNotConverged, so the
// caller sees why every attempt died, not just the last.
func RMatrix(a0, a1, a2 *matrix.Dense, opts RMatrixOptions) (*matrix.Dense, error) {
	return RMatrixOp(matrix.Op(a0), matrix.Op(a1), matrix.Op(a2), opts)
}

// RMatrixOp is RMatrix against operator-represented blocks: callers with
// structured generators (CSR via matrix.AdoptOp, Kronecker sums via
// matrix.NewKron) avoid ever materializing dense blocks on the hot path.
// Representation never changes the result bitwise.
func RMatrixOp(a0, a1, a2 matrix.BlockOp, opts RMatrixOptions) (*matrix.Dense, error) {
	r, _, err := rMatrixLadder(a0, a1, a2, opts.withDefaults(), nil)
	return r, err
}

// rMatrixLadder runs the structured fallback ladder. With certTol == nil
// it attempts the two classical rungs (logarithmic reduction, successive
// substitution) exactly as RMatrix always has, accepting the first R an
// algorithm converges to. With certTol set (the Solve path) every rung's
// R is certified — finite entries, fixed-point residual below tolerance —
// before being accepted, and two further rungs are available: a
// tightened-tolerance retry of both algorithms, then a shifted/
// regularized solve (functional G iteration on a re-uniformized chain
// with a diagonally regularized final system). The returned certificate
// records the full path and total iteration count.
func rMatrixLadder(a0, a1, a2 matrix.BlockOp, opts RMatrixOptions, certTol *certify.Tolerances) (*matrix.Dense, *certify.Certificate, error) {
	n, _ := a1.Dims()
	if n == 0 {
		c := &certify.Certificate{Finite: true}
		if certTol != nil {
			c.Tol = *certTol
		}
		return matrix.New(0, 0), c, nil
	}
	ws := opts.workspace()
	id := ws.Get(n, n).SetIdentity()
	b0, d1, b2, release := uniformizeOps(ws, a0, a1, a2, uniformizeMargin)

	var (
		path     []string
		rungs    []error
		iters    int
		canceled bool
	)
	// tryWith runs one rung judged at tol; it returns the accepted R and
	// its certificate, or records the failure and returns nils so the
	// ladder descends. A rung interrupted by the caller's deadline sets
	// canceled: the ladder aborts instead of descending — every further
	// rung would restart work the caller has already given up on.
	// quickSpectral selects the spectral bound that stops as soon as
	// sp(R) < 1 is witnessed — still rigorous, but loose; it is only ever
	// set on the raw entry points, where the certificate is an internal
	// acceptance gate and its SpectralRadius value is never surfaced to a
	// caller.
	tryWith := func(name string, tol *certify.Tolerances, quickSpectral bool, run func() (*matrix.Dense, int, error)) (*matrix.Dense, *certify.Certificate) {
		r, it, err := run()
		iters += it
		if err != nil {
			if errors.Is(err, certify.ErrDeadline) ||
				errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				canceled = true
			}
			path = append(path, name+": "+certify.KindLabel(classifyRungErr(err)))
			rungs = append(rungs, fmt.Errorf("%s: %w", name, err))
			return nil, nil
		}
		if tol == nil {
			path = append(path, name+": ok")
			return r, nil
		}
		// Fault-injection point: tests corrupt r here to prove the ladder
		// catches contamination instead of passing it downstream.
		if ferr := faultinject.Fire("qbd.R", r); ferr != nil {
			path = append(path, name+": injected")
			rungs = append(rungs, fmt.Errorf("%s: %w", name, ferr))
			return nil, nil
		}
		c := certifyRWSBound(r, a0, a1, a2, *tol, ws, quickSpectral)
		if verr := c.VerifyR(); verr != nil {
			path = append(path, name+": uncertified")
			rungs = append(rungs, fmt.Errorf("%s: %w", name, verr))
			return nil, nil
		}
		path = append(path, name+": ok")
		return r, c
	}
	try := func(name string, run func() (*matrix.Dense, int, error)) (*matrix.Dense, *certify.Certificate) {
		return tryWith(name, certTol, false, run)
	}

	var (
		r    *matrix.Dense
		cert *certify.Certificate
	)
	if opts.Newton && n >= opts.NewtonMinOrder {
		// Newton rung: always certified, even on the raw entry points
		// where the rest of the ladder runs uncertified — an early-stopped
		// quadratic iteration's truncation error must be judged, never
		// assumed. A rejection is recorded in the path and the unchanged
		// classical ladder decides.
		ntol := certTol
		if ntol == nil {
			dt := certify.DefaultTolerances()
			ntol = &dt
		}
		// On the raw entry points (certTol == nil) the certificate is an
		// internal gate whose SpectralRadius is never returned, so the
		// stability check stops at the first bound below 1 — for a
		// comfortably stable R that is one ∞-norm instead of the squarings
		// that tighten it.
		r, cert = tryWith(rungNewton, ntol, certTol == nil, func() (*matrix.Dense, int, error) {
			return newtonCyclicReductionR(id, b0, d1, b2, ws, opts)
		})
	}
	if r == nil && !canceled {
		r, cert = try(rungLogReduction, func() (*matrix.Dense, int, error) {
			return logarithmicReductionR(id, b0, d1, b2, ws, opts)
		})
	}
	if r == nil && !canceled {
		r, cert = try(rungSubstitution, func() (*matrix.Dense, int, error) {
			return successiveSubstitution(id, b0, d1, b2, ws, opts)
		})
	}
	if r == nil && !canceled && certTol != nil {
		// Rung 3: tightened-tolerance retry. A result that converged but
		// failed residual certification usually stalled just short; a
		// smaller stopping tolerance and a bigger budget give both
		// algorithms a genuinely new attempt.
		tight := opts
		tight.Tol = opts.Tol * 1e-2
		tight.MaxIter = opts.MaxIter * 10
		r, cert = try(rungTightened+"-"+rungLogReduction, func() (*matrix.Dense, int, error) {
			return logarithmicReductionR(id, b0, d1, b2, ws, tight)
		})
		if r == nil && !canceled {
			r, cert = try(rungTightened+"-"+rungSubstitution, func() (*matrix.Dense, int, error) {
				return successiveSubstitution(id, b0, d1, b2, ws, tight)
			})
		}
		if r == nil && !canceled {
			// Rung 4: shifted/regularized solve. Re-uniformize with a fat
			// margin (a genuinely different, better-separated discretization),
			// compute G by the monotone functional iteration — robust where
			// quadratic methods degenerate — and convert to R through a
			// diagonally regularized final system.
			r, cert = try(rungShifted, func() (*matrix.Dense, int, error) {
				e0, e1, e2, release2 := uniformizeOps(ws, a0, a1, a2, shiftedMargin)
				defer release2()
				sopts := opts
				sopts.MaxIter = opts.MaxIter * 10
				g, it, err := functionalIterationG(e0, e1, e2, ws, sopts)
				if err != nil {
					return nil, it, err
				}
				rr, err := rFromG(id, e0, e1, g, ws, true)
				return rr, it, err
			})
		}
	}
	ws.Put(id)
	release()
	if r == nil {
		return nil, nil, ladderFailure(iters, rungs)
	}
	if cert != nil {
		cert.Path = path
		cert.Iterations = iters
	}
	return r, cert, nil
}

// ladderFailure wraps every rung's error into one typed failure: kind
// ErrDeadline if a rung was interrupted by the caller's deadline (the
// ladder aborted; Iterations carries the partial progress), else
// ErrNumericContaminated if any rung died of contamination, otherwise
// ErrNotConverged (the retryable kind).
func ladderFailure(iters int, rungs []error) error {
	joined := errors.Join(rungs...)
	kind := certify.ErrNotConverged
	switch {
	case errors.Is(joined, certify.ErrDeadline),
		errors.Is(joined, context.Canceled),
		errors.Is(joined, context.DeadlineExceeded):
		kind = certify.ErrDeadline
	case errors.Is(joined, certify.ErrNumericContaminated):
		kind = certify.ErrNumericContaminated
	}
	return &certify.Failure{Kind: kind, Stage: "qbd.rmatrix", Iterations: iters, Err: joined}
}

// classifyRungErr maps a rung's raw error onto the taxonomy for the path
// log: matrix.ErrNoConverge → not-converged, singular systems →
// singular-boundary, anything already typed keeps its kind.
func classifyRungErr(err error) error {
	if errors.Is(err, matrix.ErrNoConverge) {
		return certify.ErrNotConverged
	}
	if errors.Is(err, matrix.ErrSingular) {
		return certify.ErrSingularBoundary
	}
	return certify.Classify(err, certify.ErrNotConverged)
}

// certifyRWS builds the R-level certificate: finiteness, the relative
// fixed-point residual ‖A₀ + R·A₁ + R²·A₂‖∞ / (‖A₀‖∞+‖A₁‖∞+‖A₂‖∞), and
// the tight upper bound on sp(R) of matrix.SpectralRadiusUpperBoundWS.
// All scratch comes from ws; the arithmetic matches ResidualR term for
// term.
func certifyRWS(r *matrix.Dense, a0, a1, a2 matrix.BlockOp, tol certify.Tolerances, ws *matrix.Workspace) *certify.Certificate {
	return certifyRWSBound(r, a0, a1, a2, tol, ws, false)
}

// certifyRWSBound is certifyRWS with a choice of spectral bound. With
// quickSpectral the SpectralRadius field is refined only far enough to
// witness sp(R) < 1, usually the free ‖R‖∞, instead of until its
// Collatz–Wielandt bracket closes. Both are rigorous upper bounds, so
// VerifyR's stability verdict is sound either way; the quick variant is
// reserved for certificates that never leave the ladder.
func certifyRWSBound(r *matrix.Dense, a0, a1, a2 matrix.BlockOp, tol certify.Tolerances, ws *matrix.Workspace, quickSpectral bool) *certify.Certificate {
	c := &certify.Certificate{Tol: tol, Finite: r.Finite()}
	if !c.Finite {
		c.Residual = math.Inf(1)
		return c
	}
	n := r.Rows()
	scale := a0.InfNorm() + a1.InfNorm() + a2.InfNorm()
	if scale == 0 {
		scale = 1
	}
	t1, t2, t3 := ws.Get(n, n), ws.Get(n, n), ws.Get(n, n)
	a1.MulFromLeftTo(t1, r)  // r·a1
	a0.AddScaledTo(t1, 1)    // a0 + r·a1
	matrix.MulTo(t2, r, r)   // r²
	a2.MulFromLeftTo(t3, t2) // r²·a2
	matrix.AddTo(t1, t1, t3) // (a0 + r·a1) + r²·a2
	c.Residual = t1.InfNorm() / scale
	ws.Put(t1, t2, t3)
	if quickSpectral {
		c.SpectralRadius = matrix.SpectralRadiusUpperBoundWithinWS(r, 1, 40, ws)
	} else {
		c.SpectralRadius = matrix.SpectralRadiusUpperBoundWS(r, 40, ws)
	}
	return c
}

// CertifyR returns the R-level certificate for an externally computed R
// against the blocks of its defining equation, judged at tol (zero-value
// means defaults). Exposed for the fuzz harness and cross-checks.
func CertifyR(r, a0, a1, a2 *matrix.Dense, tol certify.Tolerances) *certify.Certificate {
	if tol == (certify.Tolerances{}) {
		tol = certify.DefaultTolerances()
	}
	return certifyRWS(r, matrix.Op(a0), matrix.Op(a1), matrix.Op(a2), tol, matrix.NewWorkspace())
}

// uniformizeOps maps CTMC blocks to DTMC blocks Dk with
// D0 = A0/c, D1 = A1/c + I, D2 = A2/c for c ≥ max exit rate (margin
// controls the inflation above it). D1 is always dense (the +I fill-in
// makes it so); D0/D2 keep their operator representation — a dense block
// scales into a workspace matrix, a structured block scales through its
// own Scaled (Sparse.Scaled drops exact zeros, so a CSR pattern always
// matches the dense non-zero pattern). release returns the workspace
// scratch.
func uniformizeOps(ws *matrix.Workspace, a0, a1, a2 matrix.BlockOp, margin float64) (b0 matrix.BlockOp, d1 *matrix.Dense, b2 matrix.BlockOp, release func()) {
	n, _ := a1.Dims()
	a1d := a1.Dense()
	var c float64
	for i := 0; i < n; i++ {
		if r := -a1d.At(i, i); r > c {
			c = r
		}
	}
	c *= margin
	var scratch []*matrix.Dense
	scale := func(op matrix.BlockOp) matrix.BlockOp {
		if db, ok := op.(*matrix.DenseBlock); ok {
			m := matrix.ScaledTo(ws.Get(n, n), 1/c, db.Dense())
			scratch = append(scratch, m)
			return matrix.Op(m)
		}
		return op.Scaled(1 / c)
	}
	b0 = scale(a0)
	d1 = matrix.ScaledTo(ws.Get(n, n), 1/c, a1d)
	for i := 0; i < n; i++ {
		d1.Add(i, i, 1)
	}
	b2 = scale(a2)
	scratch = append(scratch, d1)
	release = func() { ws.Put(scratch...) }
	return b0, d1, b2, release
}

// logReductionG is the Latouche–Ramaswami iteration: quadratic convergence
// in the number of levels explored (level 2ᵏ after k steps). It returns G
// (first-passage to the level below) plus the iteration count. G and all
// interior scratch come from ws; the caller puts G back when done with it.
func logReductionG(id *matrix.Dense, b0 matrix.BlockOp, d1 *matrix.Dense, b2 matrix.BlockOp, ws *matrix.Workspace, opts RMatrixOptions) (*matrix.Dense, int, error) {
	n := d1.Rows()
	m := matrix.DiffTo(ws.Get(n, n), id, d1)
	lu := ws.GetLU(n)
	if err := lu.Reset(m); err != nil {
		ws.Put(m)
		ws.PutLU(lu)
		return nil, 0, fmt.Errorf("qbd: I − D₁ singular: %w", err)
	}
	base := ws.Get(n, n)
	lu.InverseTo(base)
	h := ws.Get(n, n) // up
	l := ws.Get(n, n) // down
	b0.MulFromLeftTo(h, base)
	b2.MulFromLeftTo(l, base)
	g := ws.Get(n, n).CopyFrom(l)
	t := ws.Get(n, n).CopyFrom(h)
	hl, lh, u := ws.Get(n, n), ws.Get(n, n), ws.Get(n, n)
	inv, prod := ws.Get(n, n), ws.Get(n, n)
	h2, l2, tn := ws.Get(n, n), ws.Get(n, n), ws.Get(n, n)
	cleanup := func() {
		ws.Put(m, base, h, l, t, hl, lh, u, inv, prod, h2, l2, tn)
		ws.PutLU(lu)
	}
	for iter := 0; iter < opts.MaxIter; iter++ {
		if err := iterTick(&opts, iter); err != nil {
			ws.Put(g)
			cleanup()
			return nil, iter, err
		}
		matrix.MulTo(hl, h, l)
		matrix.MulTo(lh, l, h)
		matrix.AddTo(u, hl, lh)
		matrix.DiffTo(m, id, u)
		if err := lu.Reset(m); err != nil {
			ws.Put(g)
			cleanup()
			return nil, iter, fmt.Errorf("qbd: logarithmic reduction stalled: %w", err)
		}
		lu.InverseTo(inv)
		matrix.MulTo(prod, h, h)
		matrix.MulTo(h2, inv, prod)
		matrix.MulTo(prod, l, l)
		matrix.MulTo(l2, inv, prod)
		matrix.MulTo(prod, t, l2)
		matrix.AddTo(g, g, prod)
		matrix.MulTo(tn, t, h2)
		t, tn = tn, t
		h, h2 = h2, h
		l, l2 = l2, l
		if t.MaxAbs() < opts.Tol {
			cleanup()
			return g, iter + 1, nil
		}
	}
	ws.Put(g)
	cleanup()
	return nil, opts.MaxIter, matrix.ErrNoConverge
}

// logarithmicReductionR computes G by logarithmic reduction and converts it
// to R = D₀·(I − D₁ − D₀·G)⁻¹.
func logarithmicReductionR(id *matrix.Dense, b0 matrix.BlockOp, d1 *matrix.Dense, b2 matrix.BlockOp, ws *matrix.Workspace, opts RMatrixOptions) (*matrix.Dense, int, error) {
	g, iters, err := logReductionG(id, b0, d1, b2, ws, opts)
	if err != nil {
		return nil, iters, err
	}
	r, err := rFromG(id, b0, d1, g, ws, false)
	ws.Put(g)
	return r, iters, err
}

// rFromG converts G to R = D₀·(I − D₁ − D₀·G)⁻¹. With regularize set, a
// singular system is retried once with a small diagonal perturbation
// ε·‖·‖∞ — the regularized fallback rung's last resort (the resulting R
// still has to pass residual certification to be accepted).
func rFromG(id *matrix.Dense, b0 matrix.BlockOp, d1, g *matrix.Dense, ws *matrix.Workspace, regularize bool) (*matrix.Dense, error) {
	n := d1.Rows()
	m := ws.Get(n, n) // D₀·G, then D₁ + D₀·G, then I − (D₁ + D₀·G)
	b0.MulDenseTo(m, g)
	matrix.AddTo(m, d1, m)
	matrix.DiffTo(m, id, m)
	lu := ws.GetLU(n)
	err := lu.Reset(m)
	if err != nil && regularize {
		eps := 1e-10 * (1 + m.InfNorm())
		for i := 0; i < n; i++ {
			m.Add(i, i, eps)
		}
		err = lu.Reset(m)
	}
	if err != nil {
		ws.Put(m)
		ws.PutLU(lu)
		return nil, fmt.Errorf("qbd: I − D₁ − D₀G singular: %w", err)
	}
	inv := ws.Get(n, n)
	lu.InverseTo(inv)
	// Freshly allocated: R escapes to the caller.
	r := b0.MulDenseTo(matrix.New(n, n), inv)
	ws.Put(m, inv)
	ws.PutLU(lu)
	return r, nil
}

// successiveSubstitution iterates R ← (D₀ + R²·D₂)·(I − D₁)⁻¹ from R = 0.
// Linear convergence; kept as a robust fallback.
func successiveSubstitution(id *matrix.Dense, b0 matrix.BlockOp, d1 *matrix.Dense, b2 matrix.BlockOp, ws *matrix.Workspace, opts RMatrixOptions) (*matrix.Dense, int, error) {
	n := d1.Rows()
	m := matrix.DiffTo(ws.Get(n, n), id, d1)
	lu := ws.GetLU(n)
	if err := lu.Reset(m); err != nil {
		ws.Put(m)
		ws.PutLU(lu)
		return nil, 0, fmt.Errorf("qbd: I − D₁ singular: %w", err)
	}
	inv := ws.Get(n, n)
	lu.InverseTo(inv)
	r := matrix.New(n, n) // freshly allocated: R escapes on success
	rr, s, next := ws.Get(n, n), ws.Get(n, n), ws.Get(n, n)
	cleanup := func() {
		ws.Put(m, inv, rr, s, next)
		ws.PutLU(lu)
	}
	for iter := 0; iter < opts.MaxIter; iter++ {
		if err := iterTick(&opts, iter); err != nil {
			cleanup()
			return nil, iter, err
		}
		matrix.MulTo(rr, r, r)
		b2.MulFromLeftTo(s, rr)
		// s = d0 + s, via the operator: s is kernel output (no -0
		// entries), so skipping d0's zeros and commuting the adds is
		// bitwise the historical AddTo(s, d0, s).
		b0.AddScaledTo(s, 1)
		matrix.MulTo(next, s, inv)
		diff := matrix.MaxAbsDiff(next, r)
		r.CopyFrom(next)
		if diff < opts.Tol {
			cleanup()
			return r, iter + 1, nil
		}
	}
	cleanup()
	return nil, opts.MaxIter, matrix.ErrNoConverge
}

// functionalIterationG iterates G ← D₂ + D₁·G + D₀·G² from G = 0:
// monotone, and robust for transient (substochastic-G) chains where
// logarithmic reduction can degenerate or produce NaNs.
func functionalIterationG(b0 matrix.BlockOp, d1 *matrix.Dense, b2 matrix.BlockOp, ws *matrix.Workspace, opts RMatrixOptions) (*matrix.Dense, int, error) {
	n := d1.Rows()
	g := matrix.New(n, n) // freshly allocated: G escapes on success
	s, gg, q, next := ws.Get(n, n), ws.Get(n, n), ws.Get(n, n), ws.Get(n, n)
	cleanup := func() { ws.Put(s, gg, q, next) }
	for iter := 0; iter < opts.MaxIter*100; iter++ {
		if err := iterTick(&opts, iter); err != nil {
			cleanup()
			return nil, iter, err
		}
		matrix.MulTo(s, d1, g)
		// s = d2 + s: kernel output carries no -0, so the operator's
		// zero-skipping commuted add is bitwise the historical AddTo.
		b2.AddScaledTo(s, 1)
		matrix.MulTo(gg, g, g)
		b0.MulDenseTo(q, gg)
		matrix.AddTo(next, s, q)
		diff := matrix.MaxAbsDiff(next, g)
		g.CopyFrom(next)
		if diff < opts.Tol {
			cleanup()
			return g, iter + 1, nil
		}
	}
	cleanup()
	return nil, opts.MaxIter * 100, matrix.ErrNoConverge
}

// ResidualR returns ‖A₀ + R·A₁ + R²·A₂‖_∞, a correctness check on R
// against the defining CTMC equation.
func ResidualR(r, a0, a1, a2 *matrix.Dense) float64 {
	res := matrix.Sum(a0, matrix.Mul(r, a1))
	res = matrix.Sum(res, matrix.Mul(matrix.Mul(r, r), a2))
	return res.InfNorm()
}
