// Package gangsched reproduces "An Analysis of Gang Scheduling for
// Multiprogrammed Parallel Computing Environments" (M. S. Squillante,
// F. Wang, M. Papaefthymiou; SPAA 1996): a queueing-theoretic model of a
// gang scheduler that combines time-sharing with space-sharing on a
// parallel machine, together with its matrix-geometric solution, the
// Theorem 4.3 fixed-point iteration, and a discrete-event simulator of the
// scheduling policy itself.
//
// # Model
//
// A machine of P identical processors serves L job classes. Class p runs
// each job on a partition of g(p) processors, so up to P/g(p) class-p jobs
// space-share the machine during the class's time slice. The classes
// receive the machine in rotation — a timeplexing cycle — with a
// phase-type quantum G_p and context-switch overhead C_p per class, and
// the scheduler switches early when the running class's queue empties.
// Interarrival times A_p and service demands B_p are phase-type as well.
//
// # Quick start
//
//	m := &gangsched.Model{
//		Processors: 8,
//		Classes: []gangsched.ClassParams{{
//			Partition: 2,
//			Arrival:   gangsched.Exponential(0.4),
//			Service:   gangsched.Exponential(1.0),
//			Quantum:   gangsched.Exponential(0.5),
//			Overhead:  gangsched.Exponential(100),
//		}},
//	}
//	res, err := gangsched.Solve(m, gangsched.SolveOptions{})
//	// res.Classes[0].N — mean jobs in system; .T — mean response time.
//
//	sim, err := gangsched.Simulate(gangsched.SimConfig{
//		Model: m, Seed: 1, Warmup: 1e4, Horizon: 1e5,
//	})
//
// See the examples directory for tuned scenarios and DESIGN.md /
// EXPERIMENTS.md for the paper reproduction.
package gangsched

import (
	"repro/internal/core"
	"repro/internal/phase"
	"repro/internal/sim"
)

// Model describes the gang-scheduled system (paper §3).
type Model = core.Model

// ClassParams describes one job class (paper §3.2).
type ClassParams = core.ClassParams

// SolveOptions tunes the analytic solution.
type SolveOptions = core.SolveOptions

// Result is the analytic solution for all classes.
type Result = core.Result

// ClassResult holds one class's steady-state measures (paper §4.5).
type ClassResult = core.ClassResult

// EffectiveQuantum is the Theorem 4.3 effective-quantum distribution.
type EffectiveQuantum = core.EffectiveQuantum

// Dist is a continuous phase-type distribution PH(α, S) (paper §2.5).
type Dist = phase.Dist

// SimConfig drives a discrete-event simulation run.
type SimConfig = sim.Config

// SimResult reports simulation estimates with confidence intervals.
type SimResult = sim.Result

// SpaceSimConfig drives the static space-sharing baseline.
type SpaceSimConfig = sim.SpaceConfig

// ErrAllUnstable is returned by Solve when no class satisfies the
// Theorem 4.4 drift condition.
var ErrAllUnstable = core.ErrAllUnstable

// Solve runs the full analysis: per-class QBD construction (§4.1–4.2),
// heavy-traffic initialization (Theorem 4.1), and the fixed-point
// iteration on the effective quanta (Theorem 4.3).
func Solve(m *Model, opts SolveOptions) (*Result, error) { return core.Solve(m, opts) }

// SolveHeavyTraffic solves with the Theorem 4.1 intervisit distributions
// only (no fixed-point refinement) — exact in the heavy-traffic regime.
func SolveHeavyTraffic(m *Model, opts SolveOptions) (*Result, error) {
	return core.SolveHeavyTraffic(m, opts)
}

// Session runs repeated solves while reusing structure between them —
// workspaces and per-class chain structure. A rates-only model change
// refills the existing generator in place; structural changes rebuild
// only the affected class. Reuse never changes an answer: Resolve is
// bit-for-bit the one-shot Solve; see DESIGN.md §10. Not safe for
// concurrent use: hold one per goroutine.
type Session = core.Session

// Counters are the per-run pipeline statistics (chains built vs
// refilled, QBD solves, R iterations) carried in Result.Counters and
// summed in Session.Counters.
type Counters = core.Counters

// NewSession validates opts, applies defaults, and returns a reusable
// solver session. A zero SolveOptions matches Solve's defaults:
//
//	ses, err := gangsched.NewSession(gangsched.SolveOptions{})
//	for _, m := range models { // nearby operating points
//		res, err := ses.Resolve(m)
//		...
//	}
func NewSession(opts SolveOptions) (*Session, error) { return core.NewSession(opts) }

// Simulate runs the discrete-event gang-scheduling simulator on the same
// model the analytic solver consumes.
func Simulate(cfg SimConfig) (*SimResult, error) { return sim.RunGang(cfg) }

// SimulateTimeSharing runs the pure time-sharing baseline (whole machine,
// round-robin over jobs).
func SimulateTimeSharing(cfg SimConfig) (*SimResult, error) { return sim.RunTimeSharing(cfg) }

// SimulateSpaceSharing runs the static space-partitioning baseline.
func SimulateSpaceSharing(cfg SpaceSimConfig) (*SimResult, error) { return sim.RunSpaceSharing(cfg) }

// StateDiagramDOT renders the class-p Markov chain as Graphviz DOT (the
// paper's Figure 1, generalized).
func StateDiagramDOT(m *Model, p int, maxLevel int) (string, error) {
	return core.StateDiagramDOT(m, p, nil, maxLevel)
}

// TuneOptions drives quantum-length optimization.
type TuneOptions = core.TuneOptions

// TuneResult reports an optimized operating point.
type TuneResult = core.TuneResult

// TuneQuantum searches for the common quantum mean minimizing the
// weighted mean population — the scheduler tuning the paper's abstract
// promises.
func TuneQuantum(m *Model, opts TuneOptions) (*TuneResult, error) {
	return core.TuneQuantum(m, opts)
}

// TransientOptions drives the time-dependent solution.
type TransientOptions = core.TransientOptions

// TransientMeanLevel returns E[N_p(t)] at the given times for class p
// started from an empty system, via uniformization (§2.4).
func TransientMeanLevel(m *Model, p int, times []float64, opts TransientOptions) ([]float64, error) {
	return core.TransientMeanLevel(m, p, times, opts)
}

// ExactTwoClassOptions tunes the exact joint two-class solve.
type ExactTwoClassOptions = core.ExactTwoClassOptions

// ExactTwoClassResult is the exact joint solution of a two-class model.
type ExactTwoClassResult = core.ExactTwoClassResult

// SolveExactTwoClass solves the joint chain of a two-class model with
// exponential parameters exactly (sparse Gauss–Seidel) — the comparison
// point the paper defers to its "extended version", useful for bounding
// the decomposition error of Solve.
func SolveExactTwoClass(m *Model, opts ExactTwoClassOptions) (*ExactTwoClassResult, error) {
	return core.SolveExactTwoClass(m, opts)
}

// Workload is a pregenerated job trace for common-random-numbers policy
// comparisons.
type Workload = sim.Workload

// GenerateWorkload samples the model's arrival and service processes out
// to the horizon, deterministically per seed.
func GenerateWorkload(m *Model, seed int64, horizon float64) (*Workload, error) {
	return sim.GenerateWorkload(m, seed, horizon)
}

// FitEmpirical calibrates a phase-type distribution to measured data:
// EM-fitted hyperexponential for high-variability samples, two-moment
// Erlang mixture otherwise (paper §3.2).
func FitEmpirical(data []float64) (*Dist, error) { return phase.FitEmpirical(data) }

// Exponential returns an exponential phase-type distribution with the
// given rate.
func Exponential(rate float64) *Dist { return phase.Exponential(rate) }

// Erlang returns a K-stage Erlang distribution with mean 1/mu.
func Erlang(k int, mu float64) *Dist { return phase.Erlang(k, mu) }

// HyperExponential returns the mixture Σ probs[i]·Exp(rates[i]).
func HyperExponential(probs, rates []float64) *Dist {
	return phase.HyperExponential(probs, rates)
}

// Coxian returns a Coxian distribution with the given stage rates and
// continuation probabilities.
func Coxian(rates, cont []float64) *Dist { return phase.Coxian(rates, cont) }

// FitMeanSCV returns a small-order phase-type distribution matching the
// given mean and squared coefficient of variation.
func FitMeanSCV(mean, scv float64) (*Dist, error) { return phase.FitMeanSCV(mean, scv) }

// Sampler draws exact variates from a phase-type distribution.
type Sampler = phase.Sampler

// NewSampler prepares an exact sampler for d.
func NewSampler(d *Dist) *Sampler { return phase.NewSampler(d) }

// EqualShareAllocation splits a machine into per-class partition counts
// for the space-sharing baseline.
func EqualShareAllocation(processors int, partitionSizes []int) []int {
	return sim.EqualShareAllocation(processors, partitionSizes)
}
