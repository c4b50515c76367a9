package sweep

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/certify"
	"repro/internal/certify/faultinject"
	"repro/internal/core"
	"repro/internal/sim"
)

// Default simulation window, matching internal/experiments.
const (
	defaultWarmup  = 2e4
	defaultHorizon = 2.2e5
)

// Unstable is the sentinel value recorded for a class past its stability
// boundary, so sweeps that cross the boundary still produce full grids.
const Unstable = -1

// ExecPolicy tells a trial's single attempt how to treat per-class
// solver failures. The sweep runner and gangserved's shards both give a
// trial exactly one attempt.
type ExecPolicy struct {
	// Strict turns every per-class failure into a trial error — no
	// degradation, ever.
	Strict bool
	// AllowDegraded permits falling back to simulation for classes whose
	// analytic solve failed certification.
	AllowDegraded bool
	// SolveParallel is the intra-solve parallelism forwarded to
	// core.SolveOptions.Parallel for analytic methods; ≤ 1 keeps the
	// serial path. Execution-level only — it never enters Trial hashing
	// or artifacts, because it cannot change a result bit.
	SolveParallel int
	// Newton enables the Newton-class rung in the analytic R-matrix
	// ladder (qbd.RMatrixOptions.Newton). Certified, but may differ from
	// the classical reduction within tolerance, so the runner never caches
	// Newton results (Options.Newton documents the policy).
	Newton bool
	// Ctx, when non-nil, threads into the analytic solver's iteration
	// loops (qbd.RMatrixOptions.Ctx) so a canceled run or an expired
	// request deadline interrupts a trial mid-R-iteration instead of
	// finishing a doomed solve. Execution-level only — never part of
	// Trial hashing or artifacts.
	Ctx context.Context
}

// Outcome is one attempt's result.
type Outcome struct {
	// Values are the trial's named values, as recorded in artifacts and
	// the cache.
	Values map[string]float64
	// Converged is the fixed point's verdict. A heavy-traffic solve (one
	// round by definition) and an all-unstable model (a final answer:
	// the load admits no stationary regime) count as converged, and so
	// do the simulation and exact methods.
	Converged bool
	// Degraded is true when some class value came from the simulation
	// fallback instead of a certified analytic solve.
	Degraded bool
	// Result is the analytic solve behind the values — per-class
	// certificates and pipeline counters — nil for other methods.
	Result *core.Result
}

// Exec runs one trial attempt and guards its values: a NaN or ±Inf must
// never reach artifacts, the cache or a served answer, whatever produced
// it. Failures are typed: configuration errors (bad scenario, unknown
// method) are certify.ErrConfig; numeric contamination is
// certify.ErrNumericContaminated. A fixed point that exhausts its
// budget is not an error here — the Outcome says Converged false and
// each caller decides (the runner fails the trial, gangserved ships the
// partial answer under 422). Analytic and heavy-traffic solves
// resolve through the caller's session ses, which must be non-nil for
// them; other methods ignore it. Exec does not recover panics: the
// sweep runner and gangserved's shards each contain them their own way.
func Exec(t Trial, pol ExecPolicy, ses *core.Session) (Outcome, error) {
	out, err := execute(t, pol, ses)
	if err != nil {
		return Outcome{}, err
	}
	// Fault-injection point: tests corrupt or panic here to prove the
	// value guard and worker isolation hold at the last gate.
	if ferr := faultinject.Fire("sweep.values", out.Values); ferr != nil {
		return Outcome{}, ferr
	}
	for k, v := range out.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return Outcome{}, &certify.Failure{
				Kind:  certify.ErrNumericContaminated,
				Stage: "sweep.values",
				Err:   fmt.Errorf("value %q = %v", k, v),
			}
		}
	}
	return out, nil
}

// execute is Exec before the value guard. Declared as a variable so
// tests can stub the solver.
var execute = func(t Trial, pol ExecPolicy, ses *core.Session) (Outcome, error) {
	m, err := t.Scenario.Model()
	if err != nil {
		return Outcome{}, &certify.Failure{Kind: certify.ErrConfig, Stage: "sweep.model", Err: err}
	}
	switch t.Method {
	case MethodAnalytic, MethodHeavy:
		copts := t.Solve.coreOptions()
		// The sweep's default is serial per solve (the worker pool is
		// the outer parallelism axis); SolveParallel > 1 opts a trial's
		// independent per-class QBDs onto core's worker group. Either
		// way the answer is bit-for-bit the same.
		copts.Parallel = 1
		if pol.SolveParallel > 1 {
			copts.Parallel = pol.SolveParallel
		}
		copts.RMatrix.Ctx = pol.Ctx
		copts.RMatrix.Newton = pol.Newton
		resolve := ses.ResolveWith
		if t.Method == MethodHeavy {
			resolve = ses.ResolveHeavyTraffic
		}
		res, serr := resolve(m, copts)
		allUnstable := errors.Is(serr, core.ErrAllUnstable)
		failed := failedClasses(res)
		if serr != nil && !allUnstable && len(failed) == 0 {
			// Whole-solve failure with no per-class result to salvage.
			return Outcome{}, serr
		}
		out := Outcome{Result: res,
			Converged: res.Converged || t.Method == MethodHeavy || allUnstable}
		if len(failed) == 0 {
			out.Values = analyticValues(res, nil)
			return out, nil
		}
		ferr := serr
		if ferr == nil {
			ferr = classErr(res, failed)
		}
		if pol.Strict || !pol.AllowDegraded {
			return Outcome{}, ferr
		}
		// Degradation rung: one simulation run replaces the values of
		// exactly the failed classes; healthy classes keep their
		// certified analytic values. The runner records the outcome as
		// degraded and never caches it, so a later run gets another
		// chance at a fully analytic result.
		sres, err := sim.RunGang(simConfig(t, m))
		if err != nil {
			return Outcome{}, &certify.Failure{Kind: certify.ErrNumericContaminated, Stage: "sweep.degrade",
				Err: errors.Join(err, classErr(res, failed))}
		}
		out.Values, out.Degraded = analyticValues(res, sres), true
		return out, nil

	case MethodSim:
		res, err := sim.RunGang(simConfig(t, m))
		if err != nil {
			return Outcome{}, &certify.Failure{Kind: certify.ErrConfig, Stage: "sweep.sim", Err: err}
		}
		values := make(map[string]float64, 2*len(res.Classes)+1)
		for p, cm := range res.Classes {
			values[fmt.Sprintf("simN%d", p)] = cm.MeanJobs
			values[fmt.Sprintf("ci%d", p)] = cm.MeanJobsCI
			values[fmt.Sprintf("simT%d", p)] = cm.MeanResponse
		}
		values["totalSimN"] = res.TotalMeanJobs
		return Outcome{Values: values, Converged: true}, nil

	case MethodExact2:
		res, err := core.SolveExactTwoClass(m, core.ExactTwoClassOptions{
			Truncation: t.Solve.ExactTruncation,
		})
		if err != nil {
			return Outcome{}, &certify.Failure{
				Kind:  certify.Classify(err, certify.ErrNumericContaminated),
				Stage: "sweep.exact2",
				Err:   err,
			}
		}
		return Outcome{Values: map[string]float64{
			"N0": res.N[0], "N1": res.N[1],
			"T0": res.T[0], "T1": res.T[1],
			"residual": res.Residual,
		}, Converged: true}, nil
	}
	return Outcome{}, &certify.Failure{Kind: certify.ErrConfig, Stage: "sweep.method",
		Err: fmt.Errorf("sweep: unknown method %q", t.Method)}
}

// analyticValues records an analytic solve as the trial's value map:
// each class's N and T (the Unstable sentinel past its stability
// boundary), their total over the classes with values, the fixed-point
// iteration count and residual, and the mean cycle. A failed class (non-nil Err) takes
// its N and T from the simulation run sres.
func analyticValues(res *core.Result, sres *sim.Result) map[string]float64 {
	values := make(map[string]float64, 2*len(res.Classes)+4)
	total := 0.0
	for p, cr := range res.Classes {
		n, t := float64(Unstable), float64(Unstable)
		switch {
		case cr.Err != nil:
			n, t = sres.Classes[p].MeanJobs, sres.Classes[p].MeanResponse
			total += n
		case cr.Stable:
			n, t = cr.N, cr.T
			total += n
		}
		values[fmt.Sprintf("N%d", p)] = n
		values[fmt.Sprintf("T%d", p)] = t
	}
	values["totalN"] = total
	values["iterations"] = float64(res.Iterations)
	values["fixedPointResidual"] = res.FixedPointResidual
	values["meanCycle"] = res.MeanCycle
	return values
}

// failedClasses returns the indices of classes whose solve carried a
// typed failure.
func failedClasses(res *core.Result) []int {
	if res == nil {
		return nil
	}
	var failed []int
	for p := range res.Classes {
		if res.Classes[p].Err != nil {
			failed = append(failed, p)
		}
	}
	return failed
}

func simConfig(t Trial, m *core.Model) sim.Config {
	cfg := sim.Config{
		Model: m, Seed: t.Seed,
		Warmup: t.Sim.Warmup, Horizon: t.Sim.Horizon,
		Batches: t.Sim.Batches, LocalSwitch: t.Sim.LocalSwitch,
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = defaultWarmup
	}
	if cfg.Horizon == 0 {
		cfg.Horizon = defaultHorizon
	}
	return cfg
}

func classErr(res *core.Result, failed []int) error {
	errs := make([]error, 0, len(failed))
	for _, p := range failed {
		errs = append(errs, fmt.Errorf("class %d: %w", p, res.Classes[p].Err))
	}
	return errors.Join(errs...)
}
