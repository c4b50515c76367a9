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
	// rejected Newton attempt is recorded in the certificate path and
	// logarithmic reduction, the ladder's only other rung, decides.
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
	// ladder aborts immediately — an interrupted Newton rung is not
	// followed by logarithmic reduction restarting work the caller no
	// longer wants. Nil (the default, and the only state benchmarks ever
	// see) costs one nil-check per polled iteration.
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

// cancelCheckInterval is how often (in iterations) the ladder's rungs
// poll RMatrixOptions.Ctx. Each iteration is O(n³) kernel work, so one
// Ctx.Err() per eight iterations is unmeasurable on RMatrix/medium while
// bounding the overshoot past a deadline to a few iterations.
const cancelCheckInterval = 8

// iterTick is the per-iteration instrumentation gate shared by both
// rungs, Newton and logarithmic reduction: the "qbd.iter"
// fault-injection point (tests inject per-iteration latency or errors
// through it; disarmed it is one atomic load) and the periodic
// cancellation poll. A non-nil return is a typed
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

// uniformizeMargin inflates the uniformization rate constant c above the
// maximum exit rate, so the discretized blocks stay strictly
// substochastic.
const uniformizeMargin = 1.0000001

// Ladder rung names, in the order they are attempted.
const (
	rungNewton       = "newton"
	rungLogReduction = "logreduction"
)

// RMatrix computes the minimal non-negative solution of
// R²·A₂ + R·A₁ + A₀ = 0 (paper eq. 23) by logarithmic reduction on the
// uniformized blocks, after a certified Newton attempt where opts enable
// it. The same R solves both the CTMC and its uniformized DTMC equation,
// so we discretize first (§2.4) and work with substochastic blocks
// throughout. Logarithmic reduction's R is accepted uncertified but must
// be finite: a NaN or ±Inf entry is a typed
// certify.ErrNumericContaminated failure. When every rung fails, the
// returned error joins each rung's failure (errors.Join) under one
// certify.Failure, so the caller sees why every attempt died, not just
// the last.
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

// rMatrixLadder runs the R ladder: the Newton rung, when opts.Newton is
// set and the block order reaches opts.NewtonMinOrder, then logarithmic
// reduction. The Newton rung's R is always certified. With certTol == nil
// (the raw RMatrix entry points) logarithmic reduction's R is accepted as
// long as it is finite; with certTol set (the Solve path) it is certified
// too — finite entries, fixed-point residual below tolerance — before
// being accepted. The returned certificate records the path and the
// total iteration count.
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
	b0, d1, b2, release := uniformizeOps(ws, a0, a1, a2)

	var (
		path     []string
		rungs    []error
		iters    int
		canceled bool
	)
	// try runs one rung judged at tol (nil: uncertified); it returns the
	// accepted R and its certificate, or records the failure and returns
	// nils. A rung interrupted by the caller's deadline sets canceled: the
	// ladder aborts instead of descending — the next rung would restart
	// work the caller has already given up on. On the raw entry points
	// (certTol == nil) a certificate is an internal acceptance gate whose
	// SpectralRadius is never surfaced to a caller, so its spectral bound
	// stops as soon as sp(R) < 1 is witnessed — still rigorous, but loose;
	// for a comfortably stable R that is one ∞-norm instead of the
	// squarings that tighten it.
	try := func(name string, tol *certify.Tolerances, run func() (*matrix.Dense, int, error)) (*matrix.Dense, *certify.Certificate) {
		r, it, err := run()
		iters += it
		if err == nil && tol == nil && !r.Finite() {
			// The sup-norm stopping tests skip NaN entries, so an
			// uncertified rung can "converge" to a contaminated R.
			err = fmt.Errorf("qbd: R has non-finite entries: %w", certify.ErrNumericContaminated)
		}
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
		// Fault-injection point: tests corrupt r here to prove
		// certification catches contamination instead of passing it
		// downstream.
		if ferr := faultinject.Fire("qbd.R", r); ferr != nil {
			path = append(path, name+": injected")
			rungs = append(rungs, fmt.Errorf("%s: %w", name, ferr))
			return nil, nil
		}
		c := certifyRWSBound(r, a0, a1, a2, *tol, ws, certTol == nil)
		if verr := c.VerifyR(); verr != nil {
			path = append(path, name+": uncertified")
			rungs = append(rungs, fmt.Errorf("%s: %w", name, verr))
			return nil, nil
		}
		path = append(path, name+": ok")
		return r, c
	}

	var (
		r    *matrix.Dense
		cert *certify.Certificate
	)
	if opts.Newton && n >= opts.NewtonMinOrder {
		// Newton rung: always certified, even on the raw entry points
		// where logarithmic reduction runs uncertified — an early-stopped
		// quadratic iteration's truncation error must be judged, never
		// assumed. A rejection is recorded in the path and logarithmic
		// reduction decides.
		ntol := certTol
		if ntol == nil {
			dt := certify.DefaultTolerances()
			ntol = &dt
		}
		r, cert = try(rungNewton, ntol, func() (*matrix.Dense, int, error) {
			return newtonCyclicReductionR(id, b0, d1, b2, ws, opts)
		})
	}
	if r == nil && !canceled {
		r, cert = try(rungLogReduction, certTol, func() (*matrix.Dense, int, error) {
			return logarithmicReductionR(id, b0, d1, b2, ws, opts)
		})
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
// ErrNotConverged.
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
// D0 = A0/c, D1 = A1/c + I, D2 = A2/c for c the maximum exit rate
// inflated by uniformizeMargin. D1 is always dense (the +I fill-in
// makes it so); D0/D2 keep their operator representation — a dense block
// scales into a workspace matrix, a structured block scales through its
// own Scaled (Sparse.Scaled drops exact zeros, so a CSR pattern always
// matches the dense non-zero pattern). release returns the workspace
// scratch.
func uniformizeOps(ws *matrix.Workspace, a0, a1, a2 matrix.BlockOp) (b0 matrix.BlockOp, d1 *matrix.Dense, b2 matrix.BlockOp, release func()) {
	n, _ := a1.Dims()
	a1d := a1.Dense()
	var c float64
	for i := 0; i < n; i++ {
		if r := -a1d.At(i, i); r > c {
			c = r
		}
	}
	c *= uniformizeMargin
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
	r, err := rFromG(id, b0, d1, g, ws)
	ws.Put(g)
	return r, iters, err
}

// rFromG converts G to R = D₀·(I − D₁ − D₀·G)⁻¹.
func rFromG(id *matrix.Dense, b0 matrix.BlockOp, d1, g *matrix.Dense, ws *matrix.Workspace) (*matrix.Dense, error) {
	n := d1.Rows()
	m := ws.Get(n, n) // D₀·G, then D₁ + D₀·G, then I − (D₁ + D₀·G)
	b0.MulDenseTo(m, g)
	matrix.AddTo(m, d1, m)
	matrix.DiffTo(m, id, m)
	lu := ws.GetLU(n)
	if err := lu.Reset(m); err != nil {
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

// ResidualR returns ‖A₀ + R·A₁ + R²·A₂‖_∞, a correctness check on R
// against the defining CTMC equation.
func ResidualR(r, a0, a1, a2 *matrix.Dense) float64 {
	res := matrix.Sum(a0, matrix.Mul(r, a1))
	res = matrix.Sum(res, matrix.Mul(matrix.Mul(r, r), a2))
	return res.InfNorm()
}
