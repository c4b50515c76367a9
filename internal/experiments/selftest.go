package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/phase"
	"repro/internal/sim"
)

// SelfTestCheck is one verification anchor: an independently-known value
// the library must reproduce.
type SelfTestCheck struct {
	Name   string
	Got    float64
	Want   float64
	Tol    float64 // relative tolerance
	Pass   bool
	Detail string
}

// SelfTest runs the library's closed-form anchors — the checks a user can
// run to convince themselves an installation computes correctly. Each
// anchor compares a solver output against a value known independently of
// this codebase (classical queueing formulas), or cross-checks two
// independent solvers against each other.
func SelfTest() ([]SelfTestCheck, error) {
	var checks []SelfTestCheck
	add := func(name string, got, want, tol float64, detail string) {
		checks = append(checks, SelfTestCheck{
			Name: name, Got: got, Want: want, Tol: tol,
			Pass:   math.Abs(got-want) <= tol*math.Abs(want),
			Detail: detail,
		})
	}

	// 1. M/M/c limit: one class, huge quantum, tiny overhead, g=1 on 4
	//    processors at λ=3: Erlang-C mean population.
	mmc := &core.Model{
		Processors: 4,
		Classes: []core.ClassParams{{
			Partition: 1, Arrival: phase.Exponential(3), Service: phase.Exponential(1),
			Quantum: phase.Exponential(1e-4), Overhead: phase.Exponential(1e4),
		}},
	}
	res, err := solve(mmc, core.SolveOptions{})
	if err != nil {
		return nil, fmt.Errorf("selftest M/M/c: %w", err)
	}
	add("M/M/4 limit (Erlang-C)", res.Classes[0].N, erlangC(3, 1, 4), 0.03,
		"single class, quantum >> service, overhead -> 0")

	// 2. M/M/1 with multiple vacations: quantum never expires, overhead
	//    acts as the vacation.
	vac := &core.Model{
		Processors: 2,
		Classes: []core.ClassParams{{
			Partition: 2, Arrival: phase.Exponential(0.7), Service: phase.Exponential(1),
			Quantum: phase.Exponential(1e-7), Overhead: phase.Exponential(1),
		}},
	}
	res, err = solve(vac, core.SolveOptions{})
	if err != nil {
		return nil, fmt.Errorf("selftest vacation: %w", err)
	}
	add("M/M/1 + exp vacations", res.Classes[0].N, 0.7/0.3+0.7*1, 0.01,
		"N = rho/(1-rho) + lambda*E[V^2]/(2E[V])")

	// 3. Batch arrivals: M^[3]/M/1 with constant batches.
	bm := &core.Model{
		Processors: 2,
		Classes: []core.ClassParams{{
			Partition: 2, Arrival: phase.Exponential(0.7 / 3), Service: phase.Exponential(1),
			Quantum: phase.Exponential(1e-7), Overhead: phase.Exponential(1e4),
			Batch: []float64{0, 0, 1},
		}},
	}
	res, err = solve(bm, core.SolveOptions{})
	if err != nil {
		return nil, fmt.Errorf("selftest batch: %w", err)
	}
	add("M^[3]/M/1 constant batches", res.Classes[0].N, 0.7*4/(2*0.3), 0.02,
		"N = rho(K+1)/(2(1-rho))")

	// 4. Exact joint solver vs decomposition bracket at rho = 0.5.
	two := &core.Model{
		Processors: 4,
		Classes: []core.ClassParams{
			{Partition: 2, Arrival: phase.Exponential(0.5), Service: phase.Exponential(1),
				Quantum: phase.Exponential(1), Overhead: phase.Exponential(100)},
			{Partition: 4, Arrival: phase.Exponential(0.25), Service: phase.Exponential(1),
				Quantum: phase.Exponential(1), Overhead: phase.Exponential(100)},
		},
	}
	ex, err := core.SolveExactTwoClass(two, core.ExactTwoClassOptions{Truncation: 80})
	if err != nil {
		return nil, fmt.Errorf("selftest exact: %w", err)
	}
	fp, err := solve(two, core.SolveOptions{})
	if err != nil {
		return nil, fmt.Errorf("selftest exact/fixed: %w", err)
	}
	bracket := 0.0
	if fp.Classes[0].N <= ex.N[0]*1.02 {
		bracket = 1
	}
	add("exact >= fixed point (bracket)", bracket, 1, 0,
		fmt.Sprintf("exact %.4f, fixed %.4f", ex.N[0], fp.Classes[0].N))

	// 5. Simulator vs M/M/1: single class, whole machine.
	mm1 := &core.Model{
		Processors: 4,
		Classes: []core.ClassParams{{
			Partition: 4, Arrival: phase.Exponential(0.7), Service: phase.Exponential(1),
			Quantum: phase.Exponential(1e-4), Overhead: phase.Exponential(1e5),
		}},
	}
	sres, err := sim.RunGang(sim.Config{Model: mm1, Seed: 1234, Warmup: 5e3, Horizon: 1.05e5})
	if err != nil {
		return nil, fmt.Errorf("selftest sim: %w", err)
	}
	add("simulator M/M/1 limit", sres.Classes[0].MeanJobs, 0.7/0.3, 0.06,
		"discrete-event simulator against rho/(1-rho)")

	return checks, nil
}

// FormatSelfTest renders the checks as a report, returning the text and
// whether everything passed.
func FormatSelfTest(checks []SelfTestCheck) (string, bool) {
	var b strings.Builder
	ok := true
	b.WriteString("gangsched self-test: closed-form anchors\n")
	for _, c := range checks {
		status := "PASS"
		if !c.Pass {
			status = "FAIL"
			ok = false
		}
		fmt.Fprintf(&b, "  [%s] %-32s got %.4f want %.4f (±%.0f%%)  — %s\n",
			status, c.Name, c.Got, c.Want, c.Tol*100, c.Detail)
	}
	if ok {
		b.WriteString("all anchors reproduced\n")
	} else {
		b.WriteString("ANCHOR FAILURES — this build is not computing the model correctly\n")
	}
	return b.String(), ok
}

func erlangC(lambda, mu float64, c int) float64 {
	a := lambda / mu
	rho := a / float64(c)
	var sum float64
	fact := 1.0
	for k := 0; k < c; k++ {
		if k > 0 {
			fact *= float64(k)
		}
		sum += math.Pow(a, float64(k)) / fact
	}
	factC := fact * float64(c)
	if c == 1 {
		factC = 1
	}
	last := math.Pow(a, float64(c)) / (factC * (1 - rho))
	p0 := 1 / (sum + last)
	return last*p0*rho/(1-rho) + a
}
