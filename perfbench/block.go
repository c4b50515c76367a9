package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"time"

	"repro/internal/matrix"
	"repro/internal/qbd"
)

// largeBlock is the large-block workload: certified stationary solves
// (qbd.Solve) of QBD processes whose repeating blocks are Kronecker
// structured — p macro-phases (partition/service states) each expanded
// by a depth-q phase-type stage, the shape the gang model's repeating
// portion takes with many servers and deep PH service. Block orders run
// from the Newton gate (96) to 224; the orders 128 and 192 are solved
// with the opt-in Newton rung, the other three with the default ladder
// (logarithmic reduction). The blocks take turns, so five operation
// classes of distinct cost recur in equal shares and the median falls
// inside one class.
// Closed loop, one solve at a time on one reusable workspace. It
// bypasses the model, sweep and serving layers entirely: the time is
// the matrix kernels and the QBD ladder, boundary solve and
// certification.
type largeBlock struct {
	blocks []blockParams
	procs  []*qbd.Process
	ws     *matrix.Workspace
	// last keeps each block's most recent solution for verification.
	last []*qbd.Solution
}

// blockParams are the seeded rates of one process; shapes and ladders
// are fixed so every seed does comparable work.
type blockParams struct {
	p, q                       int
	newton                     bool
	lambda, advance, skip, mix float64
	route                      float64 // share of completions routed to the first successor
}

var blockShapes = []struct {
	p, q   int
	newton bool
}{{8, 12, false}, {8, 16, true}, {10, 16, false}, {12, 16, true}, {14, 16, false}}

func newLargeBlock(rng *rand.Rand) workload {
	// Rates move by at most ±1%: enough to make every seed's blocks
	// distinct, little enough that ladder iteration counts, and so the
	// work per solve, stay the same.
	jitter := func(v float64) float64 { return v * (1 + 0.02*(rng.Float64()-0.5)) }
	w := &largeBlock{}
	for _, s := range blockShapes {
		w.blocks = append(w.blocks, blockParams{
			p: s.p, q: s.q, newton: s.newton,
			lambda:  jitter(0.6),
			advance: jitter(2),
			skip:    jitter(0.5),
			mix:     jitter(0.3),
			route:   jitter(0.7),
		})
	}
	return w
}

// setup builds every process and solves each once, which sizes the
// workspace arena and fills the operators' lazy dense views the way a
// long-running caller's first pass does.
func (w *largeBlock) setup() error {
	w.procs = w.procs[:0]
	w.ws = matrix.NewWorkspace()
	for k, b := range w.blocks {
		proc := buildBlockProcess(b)
		if _, err := qbd.Solve(proc, qbd.RMatrixOptions{Workspace: w.ws, Newton: b.newton}); err != nil {
			return fmt.Errorf("block %d: %w", k, err)
		}
		w.procs = append(w.procs, proc)
	}
	w.last = make([]*qbd.Solution, len(w.procs))
	return nil
}

// buildBlockProcess assembles one process: A0 = λ·(I_p ⊗ I_q) and
// A2 = μ·(S_p ⊗ I_q) as Kronecker operators, a dense phase-churn A1
// (stage advance and skip within a macro-phase, churn across them) with
// the diagonal completing a conservative generator, and one boundary
// level that differs from the repeating levels only by having no
// departures. λ < μ = 1, so every process is positive recurrent.
func buildBlockProcess(b blockParams) *qbd.Process {
	p, q := b.p, b.q
	n := p * q
	sp := matrix.New(p, p)
	for i := 0; i < p; i++ {
		sp.Add(i, (i*7+1)%p, b.route)
		sp.Add(i, (i*3+2)%p, 1-b.route)
	}
	a0 := matrix.NewKron(matrix.KronTerm{Coef: b.lambda, L: matrix.Identity(p), R: matrix.Identity(q)})
	a2 := matrix.NewKron(matrix.KronTerm{Coef: 1, L: sp, R: matrix.Identity(q)})
	a1 := matrix.New(n, n)
	for i := 0; i < n; i++ {
		ip, iq := i/q, i%q
		a1.Add(i, ip*q+(iq+1)%q, b.advance)
		a1.Add(i, ip*q+(iq+5)%q, b.skip)
		a1.Add(i, ((ip+1)%p)*q+iq, b.mix)
	}
	a0d, a2d := a0.Dense(), a2.Dense()
	for i := 0; i < n; i++ {
		s := a0d.At(i, i)
		for j := 0; j < n; j++ {
			s += a2d.At(i, j)
			if j != i {
				s += a1.At(i, j)
			}
		}
		a1.Set(i, i, -s)
	}
	local := a1.Clone()
	for i, r := range a2.RowSums() {
		local.Add(i, i, r)
	}
	return &qbd.Process{
		Local: []*matrix.Dense{local},
		Up:    []*matrix.Dense{a0d.Clone()},
		Down:  []*matrix.Dense{nil, a2d.Clone()},
		A0:    a0, A1: matrix.Op(a1), A2: a2,
	}
}

func (w *largeBlock) run(deadline time.Time, rep *report) error {
	// Closed loop: each solve is due when the previous one finished.
	due := time.Now()
	for i := 0; due.Before(deadline); i++ {
		k := i % len(w.procs)
		newton := w.blocks[k].newton
		start := time.Now()
		sol, err := qbd.Solve(w.procs[k], qbd.RMatrixOptions{Workspace: w.ws, Newton: newton})
		done := time.Now()
		rep.op(due, start, done)
		due = done
		rep.attempted++
		if err != nil {
			rep.failed++
			fmt.Fprintf(os.Stderr, "large-block: block %d: %v\n", k, err)
			continue
		}
		lc := &rep.layers
		lc.solves++
		lc.rIters += float64(sol.Cert.Iterations)
		if newton {
			lc.newtonTried++
			if strings.HasPrefix(sol.Cert.Path[len(sol.Cert.Path)-1], "newton:") {
				lc.newtonAccepted++
			}
		}
		w.last[k] = sol
	}
	return nil
}

// verify re-checks each block's last solution independently of the
// solver's own certificate: the matrix-quadratic residual
// ‖A₀ + R·A₁ + R²·A₂‖∞ recomputed with plain loops must be within the
// certified tolerance, the stationary mass must be 1, and a Newton R
// must match the default ladder's R for the same block.
func (w *largeBlock) verify() error {
	for k, sol := range w.last {
		if sol == nil {
			continue
		}
		proc := w.procs[k]
		if res := quadraticResidual(sol.R, proc); !(res <= sol.Cert.Tol.Residual) {
			return fmt.Errorf("block %d: residual %g above the certified %g", k, res, sol.Cert.Tol.Residual)
		}
		if m := sol.TotalMass(); !relClose(m, 1, 1e-8) {
			return fmt.Errorf("block %d: total mass %v", k, m)
		}
		if !w.blocks[k].newton {
			continue
		}
		ref, err := qbd.Solve(proc, qbd.RMatrixOptions{})
		if err != nil {
			return fmt.Errorf("block %d: default-ladder reference: %w", k, err)
		}
		for i := 0; i < ref.R.Rows(); i++ {
			for j := 0; j < ref.R.Cols(); j++ {
				if d := math.Abs(ref.R.At(i, j) - sol.R.At(i, j)); d > 1e-6 {
					return fmt.Errorf("block %d: Newton and default-ladder R differ by %g at (%d,%d)", k, d, i, j)
				}
			}
		}
	}
	return nil
}

// quadraticResidual is ‖A₀ + R·A₁ + R²·A₂‖∞ relative to the block scale,
// by naive triple loops over dense copies.
func quadraticResidual(r *matrix.Dense, p *qbd.Process) float64 {
	n := r.Rows()
	a0, a1, a2 := p.A0.Dense(), p.A1.Dense(), p.A2.Dense()
	mul := func(x, y *matrix.Dense) *matrix.Dense {
		z := matrix.New(n, n)
		for i := 0; i < n; i++ {
			for k := 0; k < n; k++ {
				if v := x.At(i, k); v != 0 {
					for j := 0; j < n; j++ {
						z.Add(i, j, v*y.At(k, j))
					}
				}
			}
		}
		return z
	}
	ra1, rra2 := mul(r, a1), mul(mul(r, r), a2)
	var worst float64
	for i := 0; i < n; i++ {
		var row float64
		for j := 0; j < n; j++ {
			row += math.Abs(a0.At(i, j) + ra1.At(i, j) + rra2.At(i, j))
		}
		worst = math.Max(worst, row)
	}
	return worst / (a0.InfNorm() + a1.InfNorm() + a2.InfNorm())
}

func (w *largeBlock) close() {}
