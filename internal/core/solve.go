package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/certify"
	"repro/internal/certify/faultinject"
	"repro/internal/phase"
	"repro/internal/qbd"
)

// ClassResult holds the per-class steady-state measures of §4.5.
type ClassResult struct {
	// Stable reports the Theorem 4.4 drift condition for this class under
	// its final intervisit distribution. When false the remaining fields
	// other than Rho are zero.
	Stable bool
	// N is the mean number of class-p jobs in the system (eq. 37).
	N float64
	// T is the mean response time N/λ_p (Little's law, Theorem 2.1).
	T float64
	// Rho is the class utilization λ_p·g(p)/(μ_p·P).
	Rho float64
	// SpectralRadiusR is sp(R_p), the geometric tail decay rate, as the
	// certificate's tight upper bound on it.
	SpectralRadiusR float64
	// Effective summarizes the class's effective quantum (Theorem 4.3).
	Effective *EffectiveQuantum
	// Intervisit is the final F_p used in the class's QBD.
	Intervisit *phase.Dist
	// Solution exposes the underlying matrix-geometric solution.
	Solution *qbd.Solution
	// Cert is the certificate of the class's final QBD solve.
	Cert *certify.Certificate
	// Err is the typed failure that killed this class's solve, nil for a
	// healthy (stable or provably unstable) class. A failed class is
	// reported per class rather than aborting the whole model solve, so
	// the sweep layer can degrade just that class to simulation.
	Err error

	chain *ClassChain
}

// QueueLengthDist returns P[N_p = n] for n = 0..maxN — the per-class
// population distribution, from which tail service-level targets can be
// read (e.g. the probability an arriving job finds all partitions busy).
func (cr *ClassResult) QueueLengthDist(maxN int) []float64 {
	if !cr.Stable || cr.Solution == nil {
		return nil
	}
	out := make([]float64, maxN+1)
	for n := 0; n <= maxN; n++ {
		out[n] = cr.chain.PhysicalLevelMass(cr.Solution, n)
	}
	return out
}

// TailProb returns P[N_p ≥ n], computed from the level distribution.
func (cr *ClassResult) TailProb(n int) float64 {
	if !cr.Stable || cr.Solution == nil {
		return 1
	}
	p := 1.0
	for i := 0; i < n; i++ {
		p -= cr.chain.PhysicalLevelMass(cr.Solution, i)
	}
	if p < 0 {
		return 0
	}
	return p
}

// Result is the model-wide analytic solution.
type Result struct {
	Classes    []ClassResult
	Iterations int // fixed-point iterations performed (1 = heavy traffic only)
	Converged  bool
	// TotalN is Σ_p N_p over stable classes.
	TotalN float64
	// MeanCycle is the converged mean timeplexing-cycle length
	// Σ_p (E[effective quantum_p] + E[C_p]).
	MeanCycle float64
	// Counters are this run's pipeline statistics: chains built vs
	// refilled, QBD solves, R iterations.
	Counters Counters
}

// ErrAllUnstable is returned when no class satisfies the drift condition.
var ErrAllUnstable = errors.New("core: every class is unstable")

// SolveHeavyTraffic solves the L per-class QBDs with the Theorem 4.1
// heavy-traffic intervisit distributions and no fixed-point refinement —
// the paper's initialization, and ablation A1's baseline.
func SolveHeavyTraffic(m *Model, opts SolveOptions) (*Result, error) {
	s, err := NewSession(opts)
	if err != nil {
		return nil, err
	}
	return s.resolve(m, s.opts, true)
}

// Solve runs the full Theorem 4.3 fixed-point iteration: solve each class,
// extract each class's effective quantum from its solution, rebuild every
// intervisit distribution from the other classes' effective quanta, and
// repeat to convergence. One-shot; to amortize structure across nearby
// solves, hold a Session and Resolve repeatedly.
func Solve(m *Model, opts SolveOptions) (*Result, error) {
	s, err := NewSession(opts)
	if err != nil {
		return nil, err
	}
	return s.resolve(m, s.opts, false)
}

// runFixedPoint is the pipeline driver: per iteration it runs stages
// 2–4 for every class (build/refill → QBD solve → quantum extraction),
// checks convergence of the mean populations, and rebuilds the
// effective quanta for the next round. The per-class solves are
// mutually independent given the iteration's quanta, so they dispatch
// onto the session's bounded worker group (solveClasses); everything
// from the convergence check down runs on the driver goroutine.
func (s *Session) runFixedPoint(m *Model, opts SolveOptions, cnt *Counters) (*Result, error) {
	l := m.NumClasses()
	quanta := nominalQuanta(m) // effective-quantum stand-ins, heavy-traffic init
	prevN := make([]float64, l)
	hist := make([][]quantumParams, l) // recent parameter iterates per class
	workers := opts.workers(l)
	accel := !opts.DisableAcceleration
	var stall accelStall

	var res *Result
	for iter := 1; iter <= opts.MaxIterations; iter++ {
		// Cancellation point: a fixed-point round costs L full QBD solves,
		// so one check per round is both cheap and timely. The per-class
		// solves poll the same context mid-R-iteration (qbd.RMatrixOptions.
		// Ctx), so a deadline interrupts work at both granularities.
		if ctx := opts.RMatrix.Ctx; ctx != nil {
			if err := ctx.Err(); err != nil {
				return res, &certify.Failure{
					Kind:       certify.ErrDeadline,
					Stage:      "core.fixedpoint",
					Iterations: iter - 1,
					Err:        err,
				}
			}
		}
		res = &Result{Iterations: iter}
		anyStable := false
		for _, cr := range s.solveClasses(m, quanta, opts, workers, cnt) {
			if cr.Stable {
				anyStable = true
				res.TotalN += cr.N
			}
			res.Classes = append(res.Classes, *cr)
		}
		if !anyStable {
			var cerrs []error
			for p := range res.Classes {
				if e := res.Classes[p].Err; e != nil {
					cerrs = append(cerrs, fmt.Errorf("class %d: %w", p, e))
				}
			}
			if len(cerrs) > 0 {
				joined := errors.Join(cerrs...)
				return res, &certify.Failure{
					Kind:  certify.Classify(joined, certify.ErrNumericContaminated),
					Stage: "core.solve",
					Err:   joined,
				}
			}
			return res, ErrAllUnstable
		}

		// Convergence check on the mean populations of stable classes.
		maxDelta := 0.0
		for p := 0; p < l; p++ {
			if !res.Classes[p].Stable {
				continue
			}
			d := math.Abs(res.Classes[p].N-prevN[p]) / (1 + math.Abs(res.Classes[p].N))
			if d > maxDelta {
				maxDelta = d
			}
			prevN[p] = res.Classes[p].N
		}
		if iter > 1 && maxDelta < opts.FixedPointTol {
			res.Converged = true
			break
		}
		if iter == opts.MaxIterations {
			break
		}
		// Safeguard on the Δ² acceleration: the componentwise extrapolation
		// can overshoot on coupled multi-class maps and settle into a limit
		// cycle that orbits the fixed point without ever meeting the
		// tolerance (first seen on a high-SCV bulk-arrival class, where the
		// accelerated iterates cycled at ~1e-3 relative amplitude forever
		// while the plain contraction converged in 19 rounds). When the
		// convergence metric stops reaching new lows for a full window of
		// rounds, drop the extrapolation for the rest of the solve and let
		// the monotone plain iteration finish the job. Solves that were
		// converging anyway never trip this, so their iterates — and every
		// artifact pinned to them — are bit-for-bit unchanged.
		if iter > 1 && accel && stall.step(maxDelta) {
			accel = false
		}

		// Rebuild the effective quanta for the next round. Unstable
		// classes always exhaust their quantum, so they keep G_p.
		for p := 0; p < l; p++ {
			cr := &res.Classes[p]
			if !cr.Stable || cr.Effective == nil {
				quanta[p] = m.Classes[p].Quantum
				hist[p] = hist[p][:0]
				continue
			}
			pr := quantumParams{
				mean: cr.Effective.ConditionalMean(),
				scv:  cr.Effective.ConditionalSCV(),
				atom: cr.Effective.Atom,
			}
			if n := len(hist[p]); n > 0 && opts.Damping < 1 {
				pr = pr.blend(hist[p][n-1], opts.Damping)
			}
			hist[p] = append(hist[p], pr)
			// Aitken Δ² extrapolation on three consecutive iterates: the
			// plain iteration is a slow linear contraction, acceleration
			// typically cuts the iteration count by an order of magnitude.
			if accel && len(hist[p]) >= 3 {
				n := len(hist[p])
				pr = aitken(hist[p][n-3], hist[p][n-2], hist[p][n-1])
				hist[p] = append(hist[p][:0], pr)
			}
			red, err := pr.dist(opts.MaxFitOrder)
			if err != nil {
				return nil, &certify.Failure{
					Kind:  certify.Classify(err, certify.ErrNumericContaminated),
					Stage: fmt.Sprintf("core.refit[%d]", p),
					Err:   err,
				}
			}
			quanta[p] = red
		}
	}

	// Mean cycle from the final effective quanta.
	for p := 0; p < l; p++ {
		res.MeanCycle += m.Classes[p].Overhead.Mean()
		if cr := res.Classes[p]; cr.Stable && cr.Effective != nil {
			res.MeanCycle += cr.Effective.Mean()
		} else {
			res.MeanCycle += m.Classes[p].Quantum.Mean()
		}
	}
	// Fault-injection point: tests force a typed failure on an otherwise
	// healthy result to drive the sweep harness's retry-and-escalate path.
	if ferr := faultinject.Fire("core.result", res); ferr != nil {
		return res, ferr
	}
	return res, nil
}

// accelStallWindow is how many consecutive fixed-point rounds may pass
// without a new low in the convergence metric before the Δ² acceleration
// is judged to be cycling rather than converging. Ten rounds is more
// than three full extrapolation periods (the acceleration fires every
// third iterate). The margin matters: traced accelerated solves that do
// converge show a decaying oscillation that sets a new low at least
// once per period after a transition plateau of up to six stale rounds,
// so a window of ten leaves them untouched — and their committed
// artifacts bit-identical — while a genuine limit cycle (constant
// amplitude, no new lows ever) still trips it a few rounds later.
const accelStallWindow = 10

// accelStall watches the fixed point's convergence metric for the
// acceleration safeguard: it remembers the best (lowest) maxDelta seen
// and counts rounds since that low was last improved.
type accelStall struct {
	best  float64
	stale int
}

// step records one round's convergence metric and reports whether the
// acceleration should be abandoned: true once accelStallWindow rounds
// have passed without a new low. A zero accelStall is ready to use (its
// zero best is replaced on the first call because any metric beats an
// unset best).
func (a *accelStall) step(delta float64) bool {
	if a.best == 0 || delta < a.best {
		a.best = delta
		a.stale = 0
		return false
	}
	a.stale++
	return a.stale >= accelStallWindow
}

// quantumParams is the reduced parameterization of an effective quantum
// carried through the fixed point: conditional mean, conditional SCV, and
// the atom at zero.
type quantumParams struct {
	mean, scv, atom float64
}

func (p quantumParams) blend(prev quantumParams, theta float64) quantumParams {
	return quantumParams{
		mean: theta*p.mean + (1-theta)*prev.mean,
		scv:  theta*p.scv + (1-theta)*prev.scv,
		atom: theta*p.atom + (1-theta)*prev.atom,
	}
}

func (p quantumParams) dist(maxOrder int) (*phase.Dist, error) {
	eq := &EffectiveQuantum{Atom: p.atom}
	eq.Moments[0] = p.mean * (1 - p.atom)
	eq.Moments[1] = (p.scv + 1) * p.mean * p.mean * (1 - p.atom)
	return eq.ReducedDist(maxOrder)
}

// aitken applies the Δ² extrapolation componentwise to three consecutive
// iterates, clamping the results to their physical ranges.
func aitken(x0, x1, x2 quantumParams) quantumParams {
	acc := func(a, b, c float64) float64 {
		d2 := (c - b) - (b - a)
		if math.Abs(d2) < 1e-14 {
			return c
		}
		return c - (c-b)*(c-b)/d2
	}
	out := quantumParams{
		mean: acc(x0.mean, x1.mean, x2.mean),
		scv:  acc(x0.scv, x1.scv, x2.scv),
		atom: acc(x0.atom, x1.atom, x2.atom),
	}
	out.mean = clamp(out.mean, 1e-9, math.Max(x2.mean*10, 1e-6))
	out.scv = clamp(out.scv, 0.01, math.Max(x2.scv*10, 0.02))
	out.atom = clamp(out.atom, 0, 0.9999)
	return out
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
