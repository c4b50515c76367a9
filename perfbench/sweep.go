package main

import (
	"cmp"
	"context"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/sweep"
)

// coldSweep is the cold-sweep workload: the 64-trial analytic grid shape
// of the committed pipeline benchmark (8 arrival rates × 4 quanta × 2
// overheads over a two-class, four-processor machine with order-2
// arrivals), run again and again through sweep.RunTrials on one worker
// with no cache, so every trial is a cold Theorem 4.3 fixed-point solve:
// model build, per-class chain builds and refills, the R ladder,
// boundary solves and effective-quantum extraction. Closed loop: a
// trial is due when the previous one finished, and the benchmark times
// it from the worker pool's per-trial progress callback.
type coldSweep struct {
	trials []sweep.Trial
	warmup []sweep.Trial // the grid's first row, in grid order
	// first holds the values of the first grid run in the window; every
	// later run must reproduce them bit for bit. mismatch records the
	// first trial that did not.
	first    []map[string]float64
	mismatch error
}

func newColdSweep(rng *rand.Rand) workload {
	class0 := 0
	spec := &sweep.Spec{
		Name: "perfbench-cold-sweep",
		Base: sweep.Scenario{Processors: 4, Classes: []sweep.ClassSpec{
			{Partition: 2, Lambda: 0.5, Mu: 1, QuantumMean: 1, OverheadMean: 0.01, ArrivalSCV: 2},
			{Partition: 4, Lambda: 0.15, Mu: 1, QuantumMean: 1, OverheadMean: 0.01},
		}},
		Axes: []sweep.Axis{
			{Param: "lambda", Class: &class0, Values: []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}},
			{Param: "quantum", Values: []float64{0.25, 0.5, 1, 2}},
			{Param: "overhead", Values: []float64{0.01, 0.05}},
		},
		Methods: []sweep.Method{sweep.MethodAnalytic},
	}
	trials, err := spec.Expand()
	if err != nil {
		panic(err) // the spec above is static and valid
	}
	// The seed orders the grid. Cold trials are independent, so the work
	// per grid is the same for every seed; moving grid values instead
	// would let some seeds land on slow-converging points and measure
	// the inputs rather than the code.
	w := &coldSweep{warmup: append([]sweep.Trial(nil), trials[:8]...), trials: trials}
	rng.Shuffle(len(trials), func(i, j int) { trials[i], trials[j] = trials[j], trials[i] })
	return w
}

// setup runs the grid's first row (one arrival rate, every quantum and
// overhead; the same trials for every seed) through the sweep layer,
// which pays the lazy set-up (allocator growth, first-use code paths) a
// sweep caller pays once per process.
func (w *coldSweep) setup() error {
	run, err := sweep.RunTrials(context.Background(), w.warmup, sweep.Options{Workers: 1})
	if err != nil {
		return err
	}
	for _, r := range run.Results {
		if r.Status != sweep.StatusOK {
			return fmt.Errorf("warm-up trial %d: %s %s", r.Index, r.Status, r.Err)
		}
	}
	return nil
}

func (w *coldSweep) run(deadline time.Time, rep *report) error {
	// due is when the next trial became due: when the previous one
	// finished (the window start for the very first).
	due := time.Now()
	for due.Before(deadline) {
		issued := time.Now()
		opts := sweep.Options{Workers: 1, Progress: func(_, _ int, _ sweep.TrialResult) {
			now := time.Now()
			rep.op(due, issued, now)
			due, issued = now, now
		}}
		run, err := sweep.RunTrials(context.Background(), w.trials, opts)
		if err != nil {
			return err
		}
		for i, r := range run.Results {
			rep.attempted++
			if r.Status != sweep.StatusOK {
				rep.failed++
				continue
			}
			lc := &rep.layers
			lc.solves += float64(r.Counters.Solves)
			lc.rIters += float64(r.Counters.RIterations)
			lc.builds += float64(r.Counters.Builds)
			lc.refills += float64(r.Counters.Refills)
			lc.fpRounds += r.Values["iterations"]
			if w.first == nil {
				continue
			}
			if !maps.Equal(w.first[i], r.Values) && w.mismatch == nil {
				w.mismatch = fmt.Errorf("trial %d: values changed between identical cold runs: %v vs %v", i, w.first[i], r.Values)
			}
		}
		if w.first == nil {
			w.first = make([]map[string]float64, len(run.Results))
			for i, r := range run.Results {
				w.first[i] = r.Values
			}
		}
	}
	return nil
}

// verify checks the grid's answers: repeated runs agreed bit for bit,
// every class has a finite, non-negative population, class 0's population
// rises with its arrival rate along every (quantum, overhead) line of the
// grid, and a sample of trials re-solved directly with core.Solve (no
// sweep layer) reproduces the sweep's values bit for bit.
func (w *coldSweep) verify() error {
	if w.mismatch != nil {
		return w.mismatch
	}
	type line struct{ quantum, overhead float64 }
	type point struct{ lambda, n float64 }
	lines := map[line][]point{}
	for i, vals := range w.first {
		sc := w.trials[i].Scenario
		for p := range sc.Classes {
			if n := vals[fmt.Sprintf("N%d", p)]; !(n >= 0) || math.IsInf(n, 0) {
				return fmt.Errorf("trial %d class %d: N=%v", i, p, n)
			}
		}
		c0 := sc.Classes[0]
		l := line{c0.QuantumMean, c0.OverheadMean}
		lines[l] = append(lines[l], point{c0.Lambda, vals["N0"]})
	}
	for l, pts := range lines {
		slices.SortFunc(pts, func(a, b point) int { return cmp.Compare(a.lambda, b.lambda) })
		for k := 1; k < len(pts); k++ {
			if !(pts[k].n > pts[k-1].n) {
				return fmt.Errorf("quantum %v overhead %v: N0 %v at lambda %v does not exceed N0 %v at lambda %v",
					l.quantum, l.overhead, pts[k].n, pts[k].lambda, pts[k-1].n, pts[k-1].lambda)
			}
		}
	}
	for _, i := range []int{0, 21, 42, 63} {
		if i >= len(w.first) || w.first[i] == nil {
			continue
		}
		m, err := w.trials[i].Scenario.Model()
		if err != nil {
			return err
		}
		res, err := core.Solve(m, core.SolveOptions{Parallel: 1})
		if err != nil {
			return fmt.Errorf("trial %d: reference solve: %w", i, err)
		}
		for p, cr := range res.Classes {
			if got := w.first[i][fmt.Sprintf("N%d", p)]; got != cr.N {
				return fmt.Errorf("trial %d class %d: sweep N=%v, direct solve N=%v", i, p, got, cr.N)
			}
		}
	}
	return nil
}

func (w *coldSweep) close() {}
