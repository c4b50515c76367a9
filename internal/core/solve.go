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
	// FixedPointResidual is the last round's distance from a fixed point:
	// the largest relative change, over classes, of the effective-quantum
	// parameters (conditional mean, conditional SCV, atom at zero) between
	// what the round consumed and what it produced. A converged result
	// has it below SolveOptions.FixedPointTol.
	FixedPointResidual float64
	// TotalN is Σ_p N_p over stable classes.
	TotalN float64
	// MeanCycle is the converged mean timeplexing-cycle length
	// Σ_p (E[effective quantum_p] + E[C_p]).
	MeanCycle float64
	// Counters are this run's pipeline statistics: chains built vs
	// refilled, QBD solves, R iterations.
	Counters Counters
}

// ConvergenceErr returns nil for a converged result, and otherwise the
// typed certify.ErrNotConverged failure of a fixed point that exhausted
// its iteration budget: its numbers are not a fixed point. A
// heavy-traffic result is unconverged by design, so its callers do not
// ask.
func (r *Result) ConvergenceErr() error {
	if r.Converged {
		return nil
	}
	return &certify.Failure{Kind: certify.ErrNotConverged, Stage: "core.fixedpoint",
		Iterations: r.Iterations, Residual: r.FixedPointResidual}
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
// checks whether the round reached the fixed point, and rebuilds the
// effective quanta for the next round. The per-class solves are
// mutually independent given the iteration's quanta, so they dispatch
// onto the session's bounded worker group (solveClasses); everything
// from the convergence check down runs on the driver goroutine.
//
// The iteration is the plain one: each round consumes the quantum
// parameters the previous round produced. It stops only at a fixed
// point — when both every class's mean population and every class's
// quantum parameters changed by less than FixedPointTol — so a round
// that merely repeats its inputs can never pass for convergence.
func (s *Session) runFixedPoint(m *Model, opts SolveOptions, cnt *Counters) (*Result, error) {
	l := m.NumClasses()
	quanta := nominalQuanta(m) // effective-quantum stand-ins, heavy-traffic init
	nominal := make([]quantumParams, l)
	for p := range nominal {
		nominal[p] = nominalParams(m.Classes[p].Quantum)
	}
	consumed := append([]quantumParams(nil), nominal...) // what quanta were built from
	produced := make([]quantumParams, l)
	prevN := make([]float64, l)
	workers := opts.workers(l)

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

		// Convergence: the change in the stable classes' mean populations,
		// and the residual of the iterated variable itself — how far the
		// quantum parameters this round produced are from the ones it
		// consumed. Unstable (and failed) classes always exhaust their
		// quantum, so they produce G_p.
		maxDelta := 0.0
		for p := 0; p < l; p++ {
			cr := &res.Classes[p]
			produced[p] = nominal[p]
			if cr.Stable {
				produced[p] = effectiveParams(cr.Effective)
				maxDelta = max(maxDelta, relChange(cr.N, prevN[p]))
				prevN[p] = cr.N
			}
			res.FixedPointResidual = max(res.FixedPointResidual, produced[p].change(consumed[p]))
		}
		if iter > 1 && maxDelta < opts.FixedPointTol && res.FixedPointResidual < opts.FixedPointTol {
			res.Converged = true
			break
		}
		if iter == opts.MaxIterations {
			break
		}

		// Rebuild the effective quanta for the next round.
		for p := 0; p < l; p++ {
			consumed[p] = produced[p]
			if !res.Classes[p].Stable {
				quanta[p] = m.Classes[p].Quantum
				continue
			}
			red, err := produced[p].dist(opts.MaxFitOrder)
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
	// healthy result to drive the callers' failure handling.
	if ferr := faultinject.Fire("core.result", res); ferr != nil {
		return res, ferr
	}
	return res, nil
}

// relChange is the relative change from old to x used by both
// convergence tests: |x − old| / (1 + |x|), so a quantity near zero is
// held to an absolute tolerance rather than an ever tighter relative
// one.
func relChange(x, old float64) float64 {
	return math.Abs(x-old) / (1 + math.Abs(x))
}

// quantumParams is the reduced parameterization of an effective quantum
// carried through the fixed point — conditional mean, conditional SCV,
// and the atom at zero. It is the variable the iteration iterates.
type quantumParams struct {
	mean, scv, atom float64
}

// effectiveParams reads a stable class's produced quantum.
func effectiveParams(e *EffectiveQuantum) quantumParams {
	return quantumParams{mean: e.ConditionalMean(), scv: e.ConditionalSCV(), atom: e.Atom}
}

// nominalParams reads the nominal quantum G_p in the same terms.
func nominalParams(g *phase.Dist) quantumParams {
	eq := &EffectiveQuantum{Atom: g.AtomAtZero()}
	eq.Moments[0], eq.Moments[1] = g.Moment(1), g.Moment(2)
	return effectiveParams(eq)
}

// change is the largest relative change of any parameter from old to p.
func (p quantumParams) change(old quantumParams) float64 {
	return max(relChange(p.mean, old.mean), relChange(p.scv, old.scv), relChange(p.atom, old.atom))
}

func (p quantumParams) dist(maxOrder int) (*phase.Dist, error) {
	eq := &EffectiveQuantum{Atom: p.atom}
	eq.Moments[0] = p.mean * (1 - p.atom)
	eq.Moments[1] = (p.scv + 1) * p.mean * p.mean * (1 - p.atom)
	return eq.ReducedDist(maxOrder)
}
