package qbd

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/matrix"
)

// newtonCyclicReductionR computes R by cyclic reduction on the
// uniformized quadratic — the Newton-class rung of the ladder. Writing
// B₀ = D₀, B₂ = D₂ and L_k = (I − D₁⁽ᵏ⁾)⁻¹, each step squares the level
// distance covered:
//
//	D₀⁽ᵏ⁺¹⁾ = D₀⁽ᵏ⁾·L_k·D₀⁽ᵏ⁾
//	D₂⁽ᵏ⁺¹⁾ = D₂⁽ᵏ⁾·L_k·D₂⁽ᵏ⁾
//	D₁⁽ᵏ⁺¹⁾ = D₁⁽ᵏ⁾ + D₀⁽ᵏ⁾·L_k·D₂⁽ᵏ⁾ + D₂⁽ᵏ⁾·L_k·D₀⁽ᵏ⁾
//	Û_{k+1}  = Û_k + D₀⁽ᵏ⁾·L_k·D₂⁽ᵏ⁾,   Û₀ = D₁
//
// and R = D₀⁽⁰⁾·(I − Û_∞)⁻¹. The iteration converges quadratically
// (vs the per-level-linear classical reductions), at six multiplies and
// one LU per step against logarithmic reduction's eight multiplies and
// one LU — and the increment-first ordering below makes the final step
// cost only two multiplies.
//
// Two structural wins pay for the rung on large blocks: the k = 0 step
// multiplies by B₀/B₂ themselves (near-free through the CSR copies of
// the gang model's λI and completion blocks), and the stop rule exploits the
// quadratic decay — when ‖increment‖ < √Tol the truncation error of Û
// is ≈ Tol, so the rung stops one squaring earlier than a fixed-point
// criterion would and lets post-hoc certification judge the residual.
func newtonCyclicReductionR(id *matrix.Dense, b0 uBlock, d1 *matrix.Dense, b2 uBlock, ws *matrix.Workspace, opts RMatrixOptions) (*matrix.Dense, int, error) {
	n := d1.Rows()
	stop := math.Sqrt(opts.Tol)

	uh := ws.Get(n, n).CopyFrom(d1)   // Û_k
	cur1 := ws.Get(n, n).CopyFrom(d1) // D₁⁽ᵏ⁾
	c0, c2 := ws.Get(n, n), ws.Get(n, n)
	c0n, c2n := ws.Get(n, n), ws.Get(n, n)
	m, inv := ws.Get(n, n), ws.Get(n, n)
	w0, w2 := ws.Get(n, n), ws.Get(n, n)
	t, inc := ws.Get(n, n), ws.Get(n, n)
	lu := ws.GetLU(n)
	cleanup := func() {
		ws.Put(uh, cur1, c0, c2, c0n, c2n, m, inv, w0, w2, t, inc)
		ws.PutLU(lu)
	}

	converged := false
	iters := 0
	for iter := 0; iter < opts.MaxIter; iter++ {
		iters = iter + 1
		if err := iterTick(&opts, iter); err != nil {
			cleanup()
			return nil, iter, err
		}
		matrix.DiffTo(m, id, cur1)
		if err := lu.Reset(m); err != nil {
			cleanup()
			return nil, iter, fmt.Errorf("qbd: newton: I − D₁⁽ᵏ⁾ singular: %w", err)
		}
		lu.InverseTo(inv) // L_k
		// Increment first: Û only needs D₀⁽ᵏ⁾·L_k·D₂⁽ᵏ⁾, so on the final
		// step the other four products are never computed. At k = 0 the
		// products run through the uniformized blocks themselves.
		if iter == 0 {
			b2.leftMulTo(w2, inv) // L·D₂
			b0.mulTo(inc, w2)     // D₀·L·D₂
		} else {
			matrix.MulTo(w2, inv, c2)
			matrix.MulTo(inc, c0, w2)
		}
		matrix.AddTo(uh, uh, inc)
		delta := inc.MaxAbs()
		if math.IsNaN(delta) {
			cleanup()
			return nil, iters, errors.New("qbd: newton iteration contaminated (NaN increment)")
		}
		if delta < stop {
			converged = true
			break
		}
		if iter == 0 {
			b0.leftMulTo(w0, inv) // L·D₀
			b2.mulTo(t, w0)       // D₂·L·D₀
			b0.mulTo(c0n, w0)     // D₀·L·D₀
			b2.mulTo(c2n, w2)     // D₂·L·D₂
		} else {
			matrix.MulTo(w0, inv, c0)
			matrix.MulTo(t, c2, w0)
			matrix.MulTo(c0n, c0, w0)
			matrix.MulTo(c2n, c2, w2)
		}
		matrix.AddTo(cur1, cur1, inc)
		matrix.AddTo(cur1, cur1, t)
		c0, c0n = c0n, c0
		c2, c2n = c2n, c2
	}
	if !converged {
		cleanup()
		return nil, opts.MaxIter, matrix.ErrNoConverge
	}
	matrix.DiffTo(m, id, uh)
	if err := lu.Reset(m); err != nil {
		cleanup()
		return nil, iters, fmt.Errorf("qbd: newton: I − Û singular: %w", err)
	}
	lu.InverseTo(inv)
	// Freshly allocated: R escapes to the caller.
	r := b0.mulTo(matrix.New(n, n), inv)
	cleanup()
	return r, iters, nil
}
