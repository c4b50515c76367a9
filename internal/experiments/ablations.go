package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/phase"
	"repro/internal/sim"
)

// solve is core.Solve for the tables: a fixed point that exhausted its
// budget is an error, which the caller wraps with its table and point,
// never a row. Heavy-traffic solves are unconverged by design and call
// core.SolveHeavyTraffic directly.
func solve(m *core.Model, opts core.SolveOptions) (*core.Result, error) {
	res, err := core.Solve(m, opts)
	if err == nil {
		err = res.ConvergenceErr()
	}
	return res, err
}

// AblationHeavyVsFixedPoint (DESIGN.md A1) compares the heavy-traffic
// initialization (Theorem 4.1 only) against the converged Theorem 4.3
// fixed point across loads, at quantum mean 1.
func AblationHeavyVsFixedPoint(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	t := &Table{
		Title:   "Ablation A1: heavy-traffic init vs converged fixed point (total N)",
		XLabel:  "rho",
		Columns: []string{"heavyN", "fixedN", "iterations"},
		Notes:   "gap shrinks as rho -> 1 where Theorem 4.1 becomes exact",
	}
	for _, rho := range []float64{0.2, 0.4, 0.6, 0.8, 0.9} {
		m := PaperModel(same4(rho), PaperServiceRates, same4(1), 0.01)
		ht, err := core.SolveHeavyTraffic(m, opts.Solve)
		if err != nil {
			return nil, fmt.Errorf("experiments: A1 rho %g heavy: %w", rho, err)
		}
		fp, err := solve(m, opts.Solve)
		if err != nil {
			return nil, fmt.Errorf("experiments: A1 rho %g fixed: %w", rho, err)
		}
		t.Rows = append(t.Rows, []float64{rho, ht.TotalN, fp.TotalN, float64(fp.Iterations)})
	}
	return t, nil
}

// AblationFitOrder (A2) varies the order cap of the moment-matched
// effective-quantum stand-in, quantifying the cost of the reduction.
func AblationFitOrder(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	t := &Table{
		Title:   "Ablation A2: effective-quantum fit order vs total N (rho = 0.6, quantum = 1)",
		XLabel:  "maxOrder",
		Columns: []string{"totalN", "iterations"},
	}
	for _, ord := range []int{2, 4, 8, 16} {
		o := opts.Solve
		o.MaxFitOrder = ord
		m := PaperModel(same4(0.6), PaperServiceRates, same4(1), 0.01)
		res, err := solve(m, o)
		if err != nil {
			return nil, fmt.Errorf("experiments: A2 order %d: %w", ord, err)
		}
		t.Rows = append(t.Rows, []float64{float64(ord), res.TotalN, float64(res.Iterations)})
	}
	return t, nil
}

// AblationQuantumShape (A3) holds the mean quantum at 1 and varies its
// distribution shape: Erlang-4 (SCV ¼), exponential (SCV 1), and a
// two-phase hyperexponential (SCV 4).
func AblationQuantumShape(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	shapes := []struct {
		scv  float64
		dist func() *phase.Dist
	}{
		{0.25, func() *phase.Dist { return phase.Erlang(4, 1) }},
		{1, func() *phase.Dist { return phase.Exponential(1) }},
		{4, func() *phase.Dist {
			d, err := phase.FitMeanSCV(1, 4)
			if err != nil {
				panic(err)
			}
			return d
		}},
	}
	t := &Table{
		Title:   "Ablation A3: quantum-length variability at fixed mean 1 (rho = 0.6)",
		XLabel:  "quantumSCV",
		Columns: []string{"N0", "N1", "N2", "N3"},
	}
	for _, s := range shapes {
		m := PaperModel(same4(0.6), PaperServiceRates, same4(1), 0.01)
		for p := range m.Classes {
			m.Classes[p].Quantum = s.dist()
		}
		res, err := solve(m, opts.Solve)
		if err != nil {
			return nil, fmt.Errorf("experiments: A3 scv %g: %w", s.scv, err)
		}
		row := []float64{s.scv}
		for p := range m.Classes {
			row = append(row, nOrInf(res.Classes[p]))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// AblationOverhead (A4) sweeps the context-switch overhead at fixed
// quantum mean 1, ρ = 0.6 — the cost the paper's knee trades against.
func AblationOverhead(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	t := &Table{
		Title:   "Ablation A4: context-switch overhead sweep (quantum = 1, rho = 0.6)",
		XLabel:  "overhead",
		Columns: []string{"N0", "N1", "N2", "N3"},
		Notes:   "-1 marks classes pushed past the stability boundary by switching waste",
	}
	for _, oh := range []float64{0.001, 0.01, 0.05, 0.1, 0.2, 0.4} {
		m := PaperModel(same4(0.6), PaperServiceRates, same4(1), oh)
		res, err := solve(m, opts.Solve)
		if err != nil && err != core.ErrAllUnstable {
			return nil, fmt.Errorf("experiments: A4 overhead %g: %w", oh, err)
		}
		row := []float64{oh}
		for p := range m.Classes {
			row = append(row, nOrInf(res.Classes[p]))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// PolicyComparison (A5) simulates gang scheduling against the pure
// time-sharing and static space-sharing baselines of the introduction,
// across loads.
func PolicyComparison(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	t := &Table{
		Title:   "Ablation A5: total mean jobs by policy (simulated)",
		XLabel:  "rho",
		Columns: []string{"gang", "spaceShare", "timeShare"},
		Notes:   "-1 marks a saturated policy (population still growing at the horizon)",
	}
	sizes := []int{1, 2, 4, 8}
	for _, rho := range []float64{0.2, 0.4, 0.6, 0.8} {
		m := PaperModel(same4(rho), PaperServiceRates, same4(1), 0.01)
		gang, err := sim.RunGang(sim.Config{Model: m, Seed: *opts.Seed, Warmup: opts.Warmup, Horizon: opts.Horizon})
		if err != nil {
			return nil, err
		}
		space, err := sim.RunSpaceSharing(sim.SpaceConfig{
			Config:     sim.Config{Model: m, Seed: *opts.Seed, Warmup: opts.Warmup, Horizon: opts.Horizon},
			Partitions: sim.EqualShareAllocation(8, sizes),
		})
		if err != nil {
			return nil, err
		}
		ts, err := sim.RunTimeSharing(sim.Config{Model: m, Seed: *opts.Seed, Warmup: opts.Warmup, Horizon: opts.Horizon})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []float64{rho,
			saturating(gang.TotalMeanJobs), saturating(space.TotalMeanJobs), saturating(ts.TotalMeanJobs)})
	}
	return t, nil
}

// LocalSwitchComparison (A6) simulates the paper's future-work variant —
// partitions switch to the next class as soon as they idle — against the
// system-wide policy analysed in the paper.
func LocalSwitchComparison(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	t := &Table{
		Title:   "Ablation A6: system-wide vs local context switching (simulated total N)",
		XLabel:  "rho",
		Columns: []string{"systemWide", "localSwitch"},
	}
	for _, rho := range []float64{0.2, 0.4, 0.6, 0.8, 0.9} {
		m := PaperModel(same4(rho), PaperServiceRates, same4(1), 0.01)
		sys, err := sim.RunGang(sim.Config{Model: m, Seed: *opts.Seed, Warmup: opts.Warmup, Horizon: opts.Horizon})
		if err != nil {
			return nil, err
		}
		loc, err := sim.RunGang(sim.Config{Model: m, Seed: *opts.Seed, Warmup: opts.Warmup, Horizon: opts.Horizon, LocalSwitch: true})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []float64{rho, sys.TotalMeanJobs, loc.TotalMeanJobs})
	}
	return t, nil
}

// ArrivalVariability (A8) holds each class's job rate fixed and sweeps
// the interarrival-time SCV — the phase-type generality of §3.2 at work:
// burstier arrivals (hyperexponential) against smoother-than-Poisson
// ones (Erlang).
func ArrivalVariability(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	t := &Table{
		Title:   "Ablation A8: interarrival variability at fixed rate (rho = 0.6, quantum = 1)",
		XLabel:  "arrivalSCV",
		Columns: []string{"N0", "N1", "N2", "N3"},
		Notes:   "many-partition classes IMPROVE with burstiness (bursts share slices; idle slices get skipped, shortening cycles) - confirmed by simulation; the serialized full-machine class worsens in simulation, a secondary effect the decomposition misses",
	}
	for _, scv := range []float64{0.25, 0.5, 1, 2, 4} {
		m := PaperModel(same4(0.6), PaperServiceRates, same4(1), 0.01)
		for p := range m.Classes {
			d, err := phase.FitMeanSCV(1/0.6, scv)
			if err != nil {
				return nil, fmt.Errorf("experiments: A8 scv %g: %w", scv, err)
			}
			m.Classes[p].Arrival = d
		}
		res, err := solve(m, opts.Solve)
		if err != nil {
			return nil, fmt.Errorf("experiments: A8 scv %g: %w", scv, err)
		}
		row := []float64{scv}
		for p := range m.Classes {
			row = append(row, nOrInf(res.Classes[p]))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// DecompositionError (A7) quantifies the Theorem 4.3 approximation
// against the exact joint two-class solution — the comparison the paper's
// deferred "extended version" would enable. Two symmetric classes on a
// 4-processor machine, quantum 1, overhead 0.01, load swept.
func DecompositionError(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	t := &Table{
		Title:   "Ablation A7: decomposition vs exact joint solution (two classes, N per class)",
		XLabel:  "rho",
		Columns: []string{"exactN0", "fixedN0", "heavyN0", "fixedErr%", "heavyErr%"},
		Notes:   "fixed point underestimates, heavy traffic overestimates; both bracket the exact value",
	}
	for _, rho := range []float64{0.2, 0.4, 0.6, 0.8} {
		m := &core.Model{
			Processors: 4,
			Classes: []core.ClassParams{
				{Partition: 2, Arrival: phase.Exponential(rho),
					Service: phase.Exponential(1), Quantum: phase.Exponential(1),
					Overhead: phase.Exponential(100)},
				{Partition: 4, Arrival: phase.Exponential(rho / 2),
					Service: phase.Exponential(1), Quantum: phase.Exponential(1),
					Overhead: phase.Exponential(100)},
			},
		}
		trunc := 80
		if rho >= 0.8 {
			trunc = 160
		}
		ex, err := core.SolveExactTwoClass(m, core.ExactTwoClassOptions{Truncation: trunc})
		if err != nil {
			return nil, fmt.Errorf("experiments: A7 rho %g exact: %w", rho, err)
		}
		fp, err := solve(m, opts.Solve)
		if err != nil {
			return nil, fmt.Errorf("experiments: A7 rho %g fixed: %w", rho, err)
		}
		ht, err := core.SolveHeavyTraffic(m, opts.Solve)
		if err != nil {
			return nil, fmt.Errorf("experiments: A7 rho %g heavy: %w", rho, err)
		}
		t.Rows = append(t.Rows, []float64{rho,
			ex.N[0], fp.Classes[0].N, ht.Classes[0].N,
			100 * (fp.Classes[0].N - ex.N[0]) / ex.N[0],
			100 * (ht.Classes[0].N - ex.N[0]) / ex.N[0],
		})
	}
	return t, nil
}

// TransientWarmup computes E[N_p(t)] from an empty machine for the paper
// configuration at ρ = 0.6, quantum 1 — the §2.4 uniformization machinery
// applied over time. Useful for sizing simulation warmups and seeing how
// fast the system forgets an empty start.
func TransientWarmup(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	m := PaperModel(same4(0.6), PaperServiceRates, same4(1), 0.01)
	times := []float64{0, 1, 2, 5, 10, 20, 50, 100, 200, 500}
	t := &Table{
		Title:   "Transient: N_p(t) from an empty machine (rho = 0.6, quantum = 1, heavy-traffic intervisit)",
		XLabel:  "t",
		Columns: []string{"N0", "N1", "N2", "N3"},
	}
	curves := make([][]float64, 4)
	for p := 0; p < 4; p++ {
		ns, err := core.TransientMeanLevel(m, p, times, core.TransientOptions{Truncation: 120})
		if err != nil {
			return nil, fmt.Errorf("experiments: transient class %d: %w", p, err)
		}
		curves[p] = ns
	}
	for i, tm := range times {
		row := []float64{tm}
		for p := 0; p < 4; p++ {
			row = append(row, curves[p][i])
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// BatchSensitivity quantifies the implemented batch-arrival extension:
// N for the single-partition class under increasingly bursty arrivals at
// a fixed job rate (analytic, validated against M^[X]/M/1 in the tests).
func BatchSensitivity(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	t := &Table{
		Title:   "Extension: batch-arrival sensitivity (single class, one full-machine partition, rho = 0.7)",
		XLabel:  "batchSize",
		Columns: []string{"N", "closedForm"},
		Notes:   "closed form: rho(K+1)/(2(1-rho)) for M^[X]/M/1 with constant batches",
	}
	const rho = 0.7
	for _, k := range []int{1, 2, 3, 4} {
		batch := make([]float64, k)
		batch[k-1] = 1
		m := &core.Model{
			Processors: 2,
			Classes: []core.ClassParams{{
				Partition: 2,
				Arrival:   phase.Exponential(rho / float64(k)),
				Service:   phase.Exponential(1),
				Quantum:   phase.Exponential(1e-7),
				Overhead:  phase.Exponential(1e4),
				Batch:     batch,
			}},
		}
		res, err := solve(m, opts.Solve)
		if err != nil {
			return nil, fmt.Errorf("experiments: batch %d: %w", k, err)
		}
		want := rho * float64(k+1) / (2 * (1 - rho))
		t.Rows = append(t.Rows, []float64{float64(k), res.Classes[0].N, want})
	}
	return t, nil
}

// MachineScaling tunes the quantum as the machine grows with the job mix
// held fixed: partition sizes stay {1, 2, 4, 8} while P doubles, so every
// class gets proportionally more partitions, and arrival rates scale to
// hold per-class utilization at 0.15 — the deployment question behind the
// paper's SP2 collaboration: how should the operating point move as the
// machine grows? (Scaling the partition sizes with P instead would leave
// the per-class chains literally unchanged.)
func MachineScaling(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	t := &Table{
		Title:   "Extension: optimal quantum vs machine size (fixed job sizes, per-class rho = 0.15)",
		XLabel:  "processors",
		Columns: []string{"bestQuantum", "totalN", "NperProc", "solves"},
		Notes:   "the optimal quantum SHRINKS with machine size: a larger partition pool drains its queue within a shorter slice, so faster rotation wins; total N stays near-linear in P",
	}
	for _, procs := range []int{8, 16, 32} {
		m := &core.Model{Processors: procs}
		for p := 0; p < 4; p++ {
			g := 1 << p
			mu := 0.5 * float64(int(1)<<p)
			lam := 0.15 * mu * float64(procs) / float64(g)
			m.Classes = append(m.Classes, core.ClassParams{
				Partition: g,
				Arrival:   phase.Exponential(lam),
				Service:   phase.Exponential(mu),
				Quantum:   phase.Exponential(1),
				Overhead:  phase.Exponential(100),
			})
		}
		tr, err := core.TuneQuantum(m, core.TuneOptions{Solve: opts.Solve})
		if err != nil {
			return nil, fmt.Errorf("experiments: scaling P=%d: %w", procs, err)
		}
		t.Rows = append(t.Rows, []float64{float64(procs), tr.Quantum, tr.Objective,
			tr.Objective / float64(procs), float64(tr.Evaluations)})
	}
	return t, nil
}

// saturating flags implausibly large populations (policy saturated over
// the finite horizon) as -1.
func saturating(n float64) float64 {
	if n > 1e4 {
		return -1
	}
	return n
}
