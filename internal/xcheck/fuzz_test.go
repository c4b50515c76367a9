package xcheck

import (
	"encoding/json"
	"errors"
	"math"
	"testing"

	"repro/internal/certify"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// FuzzScenarioCorpus drives arbitrary bytes at the oracle's front door:
// anything that decodes as a scenario must either be rejected with a
// typed certify.ErrConfig, or run through BOTH engines without a panic
// and without a NaN in any point estimate. The engines run with tight
// caps (small fit order, shallow truncation, short horizon) so the
// fuzzer explores inputs, not solver wall-clock.
func FuzzScenarioCorpus(f *testing.F) {
	for _, c := range Generate(1, 4) {
		b, err := json.Marshal(c.Scenario)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"processors":2,"classes":[{"partition":1,"lambda":0.4,"mu":1,"quantumMean":1,"overheadMean":0.01}]}`))
	f.Add([]byte(`{"processors":-3,"classes":[{}]}`))
	f.Add([]byte(`{"processors":8,"classes":[{"partition":4,"lambda":0.2,"mu":1,"quantumMean":1,"overheadMean":0.01,"batch":[0.5,0.5]}]}`))
	f.Add([]byte(`not a scenario`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var sc sweep.Scenario
		if err := json.Unmarshal(data, &sc); err != nil {
			return // not scenario-shaped at all
		}
		if err := CheckableScenario(sc); err != nil {
			if !errors.Is(err, certify.ErrConfig) {
				t.Fatalf("rejection not typed certify.ErrConfig: %v", err)
			}
			return
		}

		m, err := sc.Model()
		if err != nil {
			// Inside the envelope but unbuildable (e.g. a moment combination
			// the fitter refuses): fine, as long as it is an error, not a
			// panic. CheckCase surfaces it as a typed config failure.
			return
		}

		opts := core.SolveOptions{
			MaxFitOrder: 2, TruncationCap: 60, TailEps: 1e-6,
			FixedPointTol: 1e-3, MaxIterations: 60, Parallel: 1,
		}
		res, err := core.Solve(m, opts)
		if err != nil && !errors.Is(err, core.ErrAllUnstable) {
			if certify.KindLabel(err) == "" {
				t.Fatalf("analytic failure not typed: %v", err)
			}
		}
		if res != nil {
			for p := range res.Classes {
				cl := &res.Classes[p]
				if !cl.Stable {
					continue
				}
				if math.IsNaN(cl.N) || math.IsNaN(cl.T) || math.IsNaN(cl.Rho) {
					t.Fatalf("analytic NaN for class %d: N=%g T=%g rho=%g", p, cl.N, cl.T, cl.Rho)
				}
			}
		}

		// A short self-checking sim run: a couple of thousand jobs or a few
		// hundred cycles, whichever is smaller, floored at two cycles.
		var lam float64
		for p := range m.Classes {
			lam += m.ArrivalRate(p)
		}
		cyc := m.MeanCycleNominal()
		measure := math.Min(2000/lam, 500*cyc)
		if measure < 2*cyc {
			measure = 2 * cyc
		}
		simr, err := sim.RunGang(sim.Config{
			Model: m, Seed: 11,
			Warmup: 0.25 * measure, Horizon: 1.25 * measure,
			Debug: true,
		})
		if err != nil {
			t.Fatalf("sim failed on a checkable scenario: %v", err)
		}
		if math.IsNaN(simr.TotalMeanJobs) {
			t.Fatal("sim TotalMeanJobs is NaN")
		}
		for p, cm := range simr.Classes {
			if math.IsNaN(cm.MeanJobs) || math.IsNaN(cm.MeanResponse) || math.IsNaN(cm.MachineShare) {
				t.Fatalf("sim NaN for class %d: N=%g T=%g share=%g", p, cm.MeanJobs, cm.MeanResponse, cm.MachineShare)
			}
		}
	})
}
