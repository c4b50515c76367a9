package core

import (
	"errors"
	"fmt"
	"math"
)

// TuneOptions drive quantum-length optimization.
type TuneOptions struct {
	// Lo and Hi bracket the quantum means searched (defaults: 2× the
	// largest overhead mean, and 10× the largest service mean).
	Lo, Hi float64
	// Weights scores class p's population by Weights[p] (default: all 1,
	// minimizing total mean population; use per-class weights to
	// prioritize interactive classes).
	Weights []float64
	// Tol is the relative bracket width at which the search stops
	// (default 1e-3).
	Tol float64
	// Solve forwards options to the analytic solver.
	Solve SolveOptions
}

// TuneResult reports the optimized operating point.
type TuneResult struct {
	// Quantum is the common quantum mean minimizing the weighted
	// population.
	Quantum float64
	// Objective is the weighted Σ w_p·N_p at the optimum.
	Objective float64
	// Result is the analytic solution at the optimum.
	Result *Result
	// Evaluations counts model solves performed.
	Evaluations int
}

// ErrNoStablePoint is returned when no quantum in the bracket yields a
// stable system.
var ErrNoStablePoint = errors.New("core: no stable quantum in search bracket")

// TuneQuantum finds the common quantum mean minimizing the weighted mean
// population — the tuning the paper's abstract promises ("used to tune
// our scheduler in order to maximize its performance"). The objective is
// unimodal in the quantum (the Figures 2–3 U-shape): too-short quanta
// waste the machine on context switches, too-long quanta idle partitions
// behind exhausted queues; golden-section search exploits that.
//
// Every class's Quantum distribution is replaced by a rescaled copy with
// the candidate mean (shape preserved). Only instability scores a
// candidate as unusable: any other solve failure, or a fixed point out
// of budget, ends the search with that failure, since its numbers are no
// objective to rank.
func TuneQuantum(m *Model, opts TuneOptions) (*TuneResult, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if opts.Tol <= 0 {
		opts.Tol = 1e-3
	}
	if len(opts.Weights) == 0 {
		opts.Weights = make([]float64, len(m.Classes))
		for i := range opts.Weights {
			opts.Weights[i] = 1
		}
	}
	if len(opts.Weights) != len(m.Classes) {
		return nil, fmt.Errorf("core: %d weights for %d classes", len(opts.Weights), len(m.Classes))
	}
	if opts.Lo <= 0 || opts.Hi <= 0 {
		var maxOh, maxSvc float64
		for _, c := range m.Classes {
			maxOh = math.Max(maxOh, c.Overhead.Mean())
			maxSvc = math.Max(maxSvc, c.Service.Mean())
		}
		if opts.Lo <= 0 {
			opts.Lo = 2 * maxOh
		}
		if opts.Hi <= 0 {
			opts.Hi = 10 * maxSvc
		}
	}
	if opts.Lo >= opts.Hi {
		return nil, fmt.Errorf("core: tune bracket [%g, %g] empty", opts.Lo, opts.Hi)
	}

	// eval scores one candidate quantum: +Inf when it is unstable. The
	// first other failure is kept in failure and stops the search.
	tr := &TuneResult{}
	var failure error
	eval := func(q float64) (float64, *Result) {
		if failure != nil {
			return math.Inf(1), nil
		}
		tr.Evaluations++
		res, err := Solve(m.withQuantumMean(q), opts.Solve)
		if err == nil {
			err = res.ConvergenceErr()
		}
		switch {
		case errors.Is(err, ErrAllUnstable):
			return math.Inf(1), nil
		case err != nil:
			failure = fmt.Errorf("core: tune at quantum %g: %w", q, err)
			return math.Inf(1), nil
		}
		var obj float64
		for p, cr := range res.Classes {
			if !cr.Stable {
				return math.Inf(1), nil
			}
			obj += opts.Weights[p] * cr.N
		}
		return obj, res
	}

	// Golden-section search on log-quantum (the knee lives on a ratio
	// scale between the overhead and the service time).
	const phi = 0.6180339887498949
	a, b := math.Log(opts.Lo), math.Log(opts.Hi)
	x1 := b - phi*(b-a)
	x2 := a + phi*(b-a)
	f1, r1 := eval(math.Exp(x1))
	f2, r2 := eval(math.Exp(x2))
	for failure == nil && b-a > opts.Tol*(1+math.Abs(a)+math.Abs(b)) {
		if f1 <= f2 {
			b, x2, f2, r2 = x2, x1, f1, r1
			x1 = b - phi*(b-a)
			f1, r1 = eval(math.Exp(x1))
		} else {
			a, x1, f1, r1 = x1, x2, f2, r2
			x2 = a + phi*(b-a)
			f2, r2 = eval(math.Exp(x2))
		}
		if math.IsInf(f1, 1) && math.IsInf(f2, 1) {
			// Both probes unstable; widen toward longer quanta, which
			// only reduces switching loss.
			a = x2
			x1 = b - phi*(b-a)
			x2 = a + phi*(b-a)
			f1, r1 = eval(math.Exp(x1))
			f2, r2 = eval(math.Exp(x2))
		}
	}
	if failure != nil {
		return nil, failure
	}
	if f1 <= f2 && r1 != nil {
		tr.Quantum, tr.Objective, tr.Result = math.Exp(x1), f1, r1
	} else if r2 != nil {
		tr.Quantum, tr.Objective, tr.Result = math.Exp(x2), f2, r2
	} else {
		return nil, ErrNoStablePoint
	}
	return tr, nil
}

// withQuantumMean returns a copy of the model with every class's quantum
// rescaled to the given mean.
func (m *Model) withQuantumMean(q float64) *Model {
	mm := &Model{Processors: m.Processors, Classes: append([]ClassParams(nil), m.Classes...)}
	for p := range mm.Classes {
		mm.Classes[p].Quantum = mm.Classes[p].Quantum.WithMean(q)
	}
	return mm
}
