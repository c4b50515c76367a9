package xcheck

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/certify"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// simWindow sizes a scenario's measurement window: long enough to
// complete about targetJobs jobs, clamped to [300, 20000] timeplexing
// cycles so slow-arrival scenarios still see enough cycles for cycle
// statistics and fast-arrival ones don't generate unbounded event
// counts. A quarter of the window is prepended as warm-up. Pure
// float arithmetic on model moments — fully deterministic.
func simWindow(m *core.Model, targetJobs float64) (warmup, horizon float64) {
	var lam float64
	for p := range m.Classes {
		lam += m.ArrivalRate(p)
	}
	cycle := m.MeanCycleNominal()
	measure := targetJobs / lam
	if lim := 20000 * cycle; measure > lim {
		measure = lim
	}
	if lim := 300 * cycle; measure < lim {
		measure = lim
	}
	warmup = 0.25 * measure
	return warmup, warmup + measure
}

// CheckCase runs one scenario through both engines and every applicable
// gate. It never returns an error: every outcome, including engine
// failures, is encoded in the CaseReport (engine failures as
// Status=="error" with the typed kind label). Deterministic given
// (Case, Params).
func CheckCase(c Case, params Params) CaseReport {
	params = params.withDefaults()
	tol := params.Tol
	cr := CaseReport{
		Index:    c.Index,
		ID:       c.ID,
		Seed:     c.Seed,
		Scenario: c.Scenario,
	}
	if cr.ID == "" {
		cr.ID = c.Scenario.Key()
	}
	fail := func(stage string, err error) CaseReport {
		cr.Status = CaseError
		cr.ErrKind = certify.KindLabel(err)
		cr.Err = stage + ": " + err.Error()
		return cr
	}

	if err := CheckableScenario(c.Scenario); err != nil {
		return fail("scenario", err)
	}
	m, err := c.Scenario.Model()
	if err != nil {
		return fail("model", &certify.Failure{Kind: certify.ErrConfig, Stage: "xcheck.model", Err: err})
	}
	cr.SimWarmup, cr.SimHorizon = simWindow(m, params.TargetJobs)

	// Engine 1: the Theorem 4.3 fixed point. A fully unstable model is a
	// legitimate answer (the overload band exists to produce it), any
	// other solve error is an engine failure. Parallel=1 keeps each case
	// single-threaded — the corpus parallelizes across cases, and the
	// per-class dispatch is documented bit-for-bit identical at any
	// worker count, so this is a scheduling choice, not a numbers one.
	opts := params.Solve.CoreOptions()
	opts.Parallel = 1
	ana, anaErr := core.Solve(m, opts)
	if anaErr != nil && !errors.Is(anaErr, core.ErrAllUnstable) {
		return fail("analytic", anaErr)
	}
	if ana == nil {
		return fail("analytic", fmt.Errorf("nil result"))
	}
	if anaErr == nil && !ana.Converged {
		// Out of budget is not a fixed point: there is nothing to check.
		return fail("analytic", ana.ConvergenceErr())
	}
	for p := range ana.Classes {
		if cerr := ana.Classes[p].Err; cerr != nil {
			return fail(fmt.Sprintf("analytic class %d", p), cerr)
		}
	}
	cr.Analytic = analyticSummary(ana)

	// Engine 2: the discrete-event §3.1 policy, self-checking (Debug).
	simCfg := sim.Config{
		Model: m, Seed: c.Seed,
		Warmup: cr.SimWarmup, Horizon: cr.SimHorizon,
		Debug: true,
	}
	simr, err := sim.RunGang(simCfg)
	if err != nil {
		return fail("sim", err)
	}
	cr.Sim = simSummary(simr, cr.SimHorizon)

	// Agreement gates and metamorphic invariants.
	for p := range ana.Classes {
		cr.Checks = append(cr.Checks, classChecks(m, ana, simr, p, tol)...)
	}
	cr.Checks = append(cr.Checks, cycleCheck(m, ana, simr, cr.SimHorizon, tol))
	cr.Checks = append(cr.Checks, growthChecks(m, ana, simr, simCfg, tol)...)
	cr.Checks = append(cr.Checks, monotoneChecks(c.Scenario, ana, params)...)
	cr.Checks = append(cr.Checks, rescaleChecks(c.Scenario, ana, params)...)

	cr.Status = CaseAgree
	for _, ck := range cr.Checks {
		if ck.Status == StatusFail {
			cr.Status = CaseDisagree
			break
		}
	}
	return cr
}

func analyticSummary(res *core.Result) *AnalyticSummary {
	s := &AnalyticSummary{
		Converged:  res.Converged,
		Iterations: res.Iterations,
		TotalN:     res.TotalN,
		MeanCycle:  res.MeanCycle,
	}
	for _, cl := range res.Classes {
		s.Classes = append(s.Classes, AnalyticItem{
			Stable: cl.Stable, N: cl.N, T: cl.T, Rho: cl.Rho, SpR: cl.SpectralRadiusR,
		})
	}
	return s
}

func simSummary(res *sim.Result, horizon float64) *SimSummary {
	s := &SimSummary{
		TotalN:    res.TotalMeanJobs,
		Cycles:    res.Cycles,
		Switching: res.SwitchingFraction,
		Idle:      res.IdleFraction,
	}
	if res.Cycles > 0 {
		s.MeanCycle = horizon / float64(res.Cycles)
	}
	for _, cm := range res.Classes {
		s.Classes = append(s.Classes, SimItem{
			N: cm.MeanJobs, NCI: cm.MeanJobsCI,
			T: cm.MeanResponse, TCI: cm.MeanResponseCI,
			Share:   cm.MachineShare,
			Arrived: cm.Arrived, Completed: cm.Completed,
		})
	}
	return s
}

// classChecks gates one class: the CI-band agreement on N and T, the
// utilization law, and backlog drain. Unstable classes have no analytic
// point estimates; their cross-check is growthChecks.
func classChecks(m *core.Model, ana *core.Result, simr *sim.Result, p int, tol Tolerances) []Check {
	cl := &ana.Classes[p]
	cm := &simr.Classes[p]
	if !cl.Stable {
		return []Check{
			{Name: "N", Class: p, Status: StatusSkip, Detail: "class analytically unstable; see growth"},
		}
	}
	checks := []Check{
		bandCheck("N", p, cl.N, cm.MeanJobs, cm.MeanJobsCI, tol),
		bandCheck("T", p, cl.T, cm.MeanResponse, cm.MeanResponseCI, tol),
	}

	// Utilization law: the measured machine share of a stable class must
	// match ρ_p under any work-conserving schedule — independent of both
	// the QBD machinery and the decomposition approximation.
	util := Check{Name: "util", Class: p, Analytic: cl.Rho, Sim: cm.MachineShare}
	if cm.Completed < 100 {
		util.Status = StatusSkip
		util.Detail = fmt.Sprintf("only %d completions", cm.Completed)
	} else {
		allow := tol.RelUtil*cl.Rho + tol.AbsUtil
		util.Margin = math.Abs(cl.Rho-cm.MachineShare) / allow
		util.Status = StatusOK
		if util.Margin > 1 {
			util.Status = StatusFail
			util.Detail = fmt.Sprintf("share %s vs ρ %s (allow ±%s)",
				fmtG(cm.MachineShare), fmtG(cl.Rho), fmtG(allow))
		}
	}
	checks = append(checks, util)

	// Drain: a stable class's backlog at the end of the window is O(N),
	// not O(arrivals). Catches "analytic says stable, simulation
	// diverges" — the direction growthChecks cannot see.
	drain := Check{Name: "drain", Class: p}
	backlog := float64(cm.Arrived - cm.Completed)
	drain.Analytic = 0
	drain.Sim = backlog
	if cm.Arrived < 50 {
		drain.Status = StatusSkip
		drain.Detail = fmt.Sprintf("only %d arrivals", cm.Arrived)
	} else {
		allow := math.Max(tol.DrainAbs+8*(cm.MeanJobs+1), tol.DrainRel*float64(cm.Arrived))
		drain.Margin = math.Max(backlog, 0) / allow
		drain.Status = StatusOK
		if drain.Margin > 1 {
			drain.Status = StatusFail
			drain.Detail = fmt.Sprintf("backlog %d of %d arrivals (allow %s) — class may not be stable",
				cm.Arrived-cm.Completed, cm.Arrived, fmtG(allow))
		}
	}
	checks = append(checks, drain)
	return checks
}

// bandCheck is the asymmetric CI-band gate on a point estimate: the
// analytic value must lie within [sim − down, sim + up] where the upper
// slack is tight (the decomposition does not overestimate) and the
// lower slack covers the documented renewal-independence optimism.
func bandCheck(name string, class int, a, s, hw float64, tol Tolerances) Check {
	ck := Check{Name: name, Class: class, Analytic: a, Sim: s}
	if !finiteCI(hw) {
		ck.Status = StatusSkip
		ck.Detail = "no usable CI"
		return ck
	}
	up := tol.CIWiden*hw + tol.RelOver*math.Abs(s) + tol.Abs
	down := tol.CIWiden*hw + tol.RelUnder*math.Abs(s) + tol.Abs
	if a >= s {
		ck.Margin = (a - s) / up
	} else {
		ck.Margin = (s - a) / down
	}
	ck.Status = StatusOK
	if ck.Margin > 1 {
		ck.Status = StatusFail
		ck.Detail = fmt.Sprintf("analytic %s vs sim %s ± %s (band −%s/+%s)",
			fmtG(a), fmtG(s), fmtG(hw), fmtG(down), fmtG(up))
	}
	return ck
}

// cycleCheck is the effective-quantum cross-check. The two cycle
// notions are not the same quantity: the simulator skips a class's
// slice instantly when no job is present at its start, while the
// converged analytic Σ(E[eff_p]+E[C_p]) conditions each class on its
// own QBD's stationary view — empirically 1.2–2.6× the simulated
// rotation at light-to-moderate load, converging to it at saturation.
// So the gate is a bracket, not an equality: the analytic cycle must
// lie in [cycleFloor·sim, cycleCeiling·nominal]. A broken extraction
// (effective quantum collapsing to zero or escaping above the nominal
// quantum) leaves the bracket immediately. When every class is
// unstable the analytic cycle is undefined (0); there the simulated
// cycle itself must equal the *nominal* cycle within RelCycle, because
// saturation pins every slice at its full quantum.
func cycleCheck(m *core.Model, ana *core.Result, simr *sim.Result, horizon float64, tol Tolerances) Check {
	const (
		cycleFloor   = 0.7
		cycleCeiling = 1.05
	)
	ck := Check{Name: "meanCycle", Class: -1, Analytic: ana.MeanCycle}
	if simr.Cycles < 100 {
		ck.Status = StatusSkip
		ck.Detail = fmt.Sprintf("only %d cycles", simr.Cycles)
		return ck
	}
	s := horizon / float64(simr.Cycles)
	ck.Sim = s
	nominal := m.MeanCycleNominal()
	if ana.MeanCycle == 0 {
		// All classes unstable: saturated slices, sim cycle ≈ nominal.
		ck.Margin = math.Abs(s-nominal) / (tol.RelCycle * nominal)
		ck.Status = StatusOK
		if ck.Margin > 1 {
			ck.Status = StatusFail
			ck.Detail = fmt.Sprintf("saturated sim cycle %s vs nominal %s (allow ±%s)",
				fmtG(s), fmtG(nominal), fmtG(tol.RelCycle*nominal))
		}
		return ck
	}
	ck.Margin = math.Max(ana.MeanCycle/(cycleCeiling*nominal), cycleFloor*s/ana.MeanCycle)
	ck.Status = StatusOK
	if ck.Margin > 1 {
		ck.Status = StatusFail
		ck.Detail = fmt.Sprintf("analytic cycle %s outside [%g·sim %s, %g·nominal %s]",
			fmtG(ana.MeanCycle), cycleFloor, fmtG(s), cycleCeiling, fmtG(nominal))
	}
	return ck
}

// growthChecks is the stability-boundary consistency invariant: a class
// the analytic model calls unstable must show population growth when the
// horizon doubles. Only decisively unstable classes are gated — those
// whose arrival rate exceeds the class's asymptotic service capacity
// λ_p > 1.15 · Servers_p·μ_p·E[G_p]/E[cycle] — because right at the
// boundary the approximate drift condition and a finite simulation can
// legitimately disagree about which side a class is on.
func growthChecks(m *core.Model, ana *core.Result, simr *sim.Result, cfg sim.Config, tol Tolerances) []Check {
	var targets []int
	cycle := ana.MeanCycle
	if !(cycle > 0) {
		cycle = m.MeanCycleNominal()
	}
	for p := range ana.Classes {
		if ana.Classes[p].Stable {
			continue
		}
		capacity := float64(m.Servers(p)) * m.ServiceRate(p) * m.Classes[p].Quantum.Mean() / cycle
		if m.ArrivalRate(p) > 1.15*capacity && simr.Classes[p].Arrived >= 100 {
			targets = append(targets, p)
		}
	}
	if len(targets) == 0 {
		return nil
	}
	// One doubled-horizon run covers every gated class.
	cfg2 := cfg
	cfg2.Horizon = cfg.Warmup + 2*(cfg.Horizon-cfg.Warmup)
	sim2, err := sim.RunGang(cfg2)
	var checks []Check
	if err != nil {
		for _, p := range targets {
			checks = append(checks, Check{Name: "growth", Class: p, Status: StatusFail,
				Detail: "doubled-horizon run failed: " + err.Error()})
		}
		return checks
	}
	for _, p := range targets {
		mj1 := simr.Classes[p].MeanJobs
		mj2 := sim2.Classes[p].MeanJobs
		ck := Check{Name: "growth", Class: p, Analytic: mj1, Sim: mj2}
		if mj1 < 5 {
			ck.Status = StatusSkip
			ck.Detail = fmt.Sprintf("population %s too small to trend", fmtG(mj1))
			checks = append(checks, ck)
			continue
		}
		ratio := mj2 / mj1
		ck.Margin = tol.GrowthFactor / ratio
		ck.Status = StatusOK
		if ck.Margin > 1 {
			ck.Status = StatusFail
			ck.Detail = fmt.Sprintf("unstable class population went %s → %s (×%s) on doubled horizon, want ×%s",
				fmtG(mj1), fmtG(mj2), fmtG(ratio), fmtG(tol.GrowthFactor))
		}
		checks = append(checks, ck)
	}
	return checks
}

// monotoneChecks: scaling every arrival rate by 1.15 cannot shrink any
// stable class's mean population, and cannot turn an unstable class
// stable. Analytic-only — noise-free, so it stays sharp where
// simulation CIs are wide.
func monotoneChecks(sc sweep.Scenario, base *core.Result, params Params) []Check {
	tol := params.Tol
	anyStable := false
	for _, cl := range base.Classes {
		if cl.Stable {
			anyStable = true
		}
	}
	scaled := cloneScenario(sc)
	for i := range scaled.Classes {
		scaled.Classes[i].Lambda *= 1.15
	}
	res, err := solveVariant(scaled, params)
	if err != nil {
		if !anyStable {
			// Everything already unstable and still unstable: consistent.
			return nil
		}
		return []Check{{Name: "monotone-N", Class: -1, Status: StatusFail,
			Detail: "scaled-λ solve failed: " + err.Error()}}
	}
	var checks []Check
	for p := range base.Classes {
		b, v := &base.Classes[p], &res.Classes[p]
		if !b.Stable {
			if v.Stable {
				checks = append(checks, Check{Name: "monotone-N", Class: p, Status: StatusFail,
					Detail: "class unstable at λ but stable at 1.15·λ"})
			}
			continue
		}
		if !v.Stable {
			// More load pushed the class over the boundary: consistent.
			continue
		}
		// Only the population is gated. Mean response time is NOT
		// monotone in λ here: raising a class's arrival rate lengthens
		// its own effective quantum, growing its share of the cycle, and
		// near another class's saturation that share gain can outweigh
		// the extra queueing (observed: T −1.6% under λ×1.15). That is
		// gang-scheduling economics, not a solver bug.
		checks = append(checks, monotoneCheck("monotone-N", p, b.N, v.N, tol))
	}
	return checks
}

func monotoneCheck(name string, class int, base, scaled float64, tol Tolerances) Check {
	ck := Check{Name: name, Class: class, Analytic: base, Sim: scaled}
	ck.Margin = (base - scaled) / (tol.MonotoneSlack*math.Abs(base) + 1e-9)
	if ck.Margin < 0 {
		ck.Margin = 0
	}
	ck.Status = StatusOK
	if ck.Margin > 1 {
		ck.Status = StatusFail
		ck.Detail = fmt.Sprintf("value fell %s → %s when every λ rose 15%%", fmtG(base), fmtG(scaled))
	}
	return ck
}

// rescaleChecks: measuring time in half-sized units (all rates ×2, all
// means ÷2) is the identity transform on the physical system — the
// stability pattern must be preserved exactly, populations must be
// invariant, and response times must halve, to near machine precision.
func rescaleChecks(sc sweep.Scenario, base *core.Result, params Params) []Check {
	tol := params.Tol
	const k = 2.0
	scaled := cloneScenario(sc)
	for i := range scaled.Classes {
		c := &scaled.Classes[i]
		c.Lambda *= k
		c.Mu *= k
		c.QuantumMean /= k
		c.OverheadMean /= k
	}
	res, err := solveVariant(scaled, params)
	if err != nil {
		return []Check{{Name: "rescale-N", Class: -1, Status: StatusFail,
			Detail: "rescaled solve failed: " + err.Error()}}
	}
	var checks []Check
	for p := range base.Classes {
		b, v := &base.Classes[p], &res.Classes[p]
		if b.Stable != v.Stable {
			checks = append(checks, Check{Name: "rescale-N", Class: p, Status: StatusFail,
				Detail: fmt.Sprintf("stability flipped under time rescale: %v → %v", b.Stable, v.Stable)})
			continue
		}
		if !b.Stable {
			continue
		}
		nck := Check{Name: "rescale-N", Class: p, Analytic: b.N, Sim: v.N}
		nck.Margin = math.Abs(v.N-b.N) / (tol.RescaleTol * math.Max(math.Abs(b.N), 1e-6))
		nck.Status = StatusOK
		if nck.Margin > 1 {
			nck.Status = StatusFail
			nck.Detail = fmt.Sprintf("N %s → %s under time rescale (want invariant)", fmtG(b.N), fmtG(v.N))
		}
		tck := Check{Name: "rescale-T", Class: p, Analytic: b.T, Sim: v.T}
		tck.Margin = math.Abs(k*v.T-b.T) / (tol.RescaleTol * math.Max(math.Abs(b.T), 1e-6))
		tck.Status = StatusOK
		if tck.Margin > 1 {
			tck.Status = StatusFail
			tck.Detail = fmt.Sprintf("T %s → %s under ×%g time rescale (want exactly halved)", fmtG(b.T), fmtG(v.T), k)
		}
		checks = append(checks, nck, tck)
	}
	return checks
}

// solveVariant solves a metamorphic variant scenario, tolerating the
// all-unstable verdict (the variant result still carries per-class
// stability flags) but surfacing real failures.
func solveVariant(sc sweep.Scenario, params Params) (*core.Result, error) {
	m, err := sc.Model()
	if err != nil {
		return nil, err
	}
	opts := params.Solve.CoreOptions()
	opts.Parallel = 1
	res, err := core.Solve(m, opts)
	if err != nil && !errors.Is(err, core.ErrAllUnstable) {
		return nil, err
	}
	if res == nil {
		return nil, fmt.Errorf("nil result")
	}
	for p := range res.Classes {
		if cerr := res.Classes[p].Err; cerr != nil {
			return nil, fmt.Errorf("class %d: %w", p, cerr)
		}
	}
	return res, nil
}

func cloneScenario(s sweep.Scenario) sweep.Scenario {
	out := s
	out.Classes = make([]sweep.ClassSpec, len(s.Classes))
	copy(out.Classes, s.Classes)
	for i, c := range s.Classes {
		if len(c.Batch) > 0 {
			out.Classes[i].Batch = append([]float64(nil), c.Batch...)
		}
	}
	return out
}
