package core

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"

	"repro/internal/certify"
	"repro/internal/qbd"
)

// SolveOptions tune the analytic solution.
type SolveOptions struct {
	// RMatrix forwards options to the QBD R-matrix computation.
	RMatrix qbd.RMatrixOptions
	// FixedPointTol is the relative change at which the Theorem 4.3
	// iteration stops: every class's mean population and every class's
	// effective-quantum parameters must change by less than it in one
	// round. Default 1e-6.
	FixedPointTol float64
	// MaxIterations bounds the fixed-point iteration. Default 200.
	MaxIterations int
	// MaxFitOrder caps the order of the moment-matched effective-quantum
	// stand-in (ablation A2). Default 8.
	MaxFitOrder int
	// TailEps sets the stationary tail mass at which the effective-quantum
	// chain is truncated. Default 1e-10.
	TailEps float64
	// TruncationCap bounds the truncation depth above the boundary.
	// Default 400.
	TruncationCap int
	// Parallel bounds the worker group that solves the L independent
	// per-class QBDs of each fixed-point iteration concurrently. 0 means
	// GOMAXPROCS, 1 forces the historical serial path; values above the
	// class count are clamped to it. The classes only couple at the
	// effective-quantum rebuild barrier, each worker owns a per-class
	// workspace arena, and results merge back in class order, so any
	// Parallel value produces bit-for-bit the serial answer — this is an
	// A/B throughput lever, never a semantics knob.
	Parallel int
}

// workers resolves the Parallel knob against the class count l: the
// size of the per-iteration dispatch group.
func (o SolveOptions) workers(l int) int {
	n := o.Parallel
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > l {
		n = l
	}
	if n < 1 {
		n = 1
	}
	return n
}

func (o SolveOptions) withDefaults() SolveOptions {
	if o.FixedPointTol == 0 {
		o.FixedPointTol = 1e-6
	}
	if o.MaxIterations == 0 {
		o.MaxIterations = 200
	}
	if o.MaxFitOrder == 0 {
		o.MaxFitOrder = 8
	}
	if o.TailEps == 0 {
		o.TailEps = 1e-10
	}
	if o.TruncationCap == 0 {
		o.TruncationCap = 400
	}
	return o
}

// Validate rejects out-of-range options with a typed certify.ErrConfig
// failure. Zero values are legal everywhere — they mean "use the
// default" — so only genuinely meaningless settings (negative
// tolerances, negative iteration budgets) are errors. Solve,
// SolveHeavyTraffic and NewSession all call this; it is exported so
// callers can validate configuration up front, e.g. before enqueueing a
// sweep.
func (o SolveOptions) Validate() error {
	bad := func(field string, v any) error {
		return &certify.Failure{
			Kind:  certify.ErrConfig,
			Stage: "core.options",
			Err:   fmt.Errorf("core: %s = %v out of range", field, v),
		}
	}
	switch {
	case o.FixedPointTol < 0 || math.IsNaN(o.FixedPointTol):
		return bad("FixedPointTol", o.FixedPointTol)
	case o.TailEps < 0 || math.IsNaN(o.TailEps):
		return bad("TailEps", o.TailEps)
	case o.MaxIterations < 0:
		return bad("MaxIterations", o.MaxIterations)
	case o.TruncationCap < 0:
		return bad("TruncationCap", o.TruncationCap)
	case o.MaxFitOrder < 0:
		return bad("MaxFitOrder", o.MaxFitOrder)
	case o.Parallel < 0:
		return bad("Parallel", o.Parallel)
	case o.RMatrix.Tol < 0 || math.IsNaN(o.RMatrix.Tol):
		return bad("RMatrix.Tol", o.RMatrix.Tol)
	case o.RMatrix.MaxIter < 0:
		return bad("RMatrix.MaxIter", o.RMatrix.MaxIter)
	}
	return nil
}

// Counters are the per-run pipeline statistics of one solve (or, summed,
// of a Session's lifetime): how much structural work was reused and how
// much R-matrix iteration the QBD solves took. A run that did no
// analytic work at all (everything served from cache) reports all-zero
// counters — the sweep layer omits them from its manifest entirely.
type Counters struct {
	// Builds counts class chains built from scratch.
	Builds int `json:"builds"`
	// Refills counts in-place generator refills: the class's state space
	// and sparsity structure were reused, only the rate entries were
	// regenerated.
	Refills int `json:"refills"`
	// Solves counts QBD solve attempts (stable or not).
	Solves int `json:"solves"`
	// RIterations sums the R-matrix iteration counts certified across all
	// solves; divide by Solves for the mean cost of one solve.
	RIterations int `json:"rIterations"`
	// WarmSolves and WarmAccepted are always zero: every QBD solve starts
	// from scratch. They stay because the perfbench harness reads them.
	WarmSolves   int `json:"warmSolves"`
	WarmAccepted int `json:"warmAccepted"`
}

// Add accumulates another run's counters into c.
func (c *Counters) Add(o Counters) {
	c.Builds += o.Builds
	c.Refills += o.Refills
	c.Solves += o.Solves
	c.RIterations += o.RIterations
}

// Sub removes an earlier snapshot's counters from c, leaving the work
// done between the two.
func (c *Counters) Sub(o Counters) {
	c.Builds -= o.Builds
	c.Refills -= o.Refills
	c.Solves -= o.Solves
	c.RIterations -= o.RIterations
}

// AtomicCounters is the race-safe Counters accumulator: the owning
// goroutine Adds per-solve deltas while any number of other goroutines
// Snapshot concurrently — the gangserved /metrics scrape reads every
// shard's live session mid-solve. Each field is an independent atomic,
// so a Snapshot taken during an Add may be torn *across* fields (e.g.
// Solves already bumped, RIterations not yet); every individual field is
// still a value that was, or will momentarily be, correct, which is all
// a monotone metrics counter needs.
type AtomicCounters struct {
	builds, refills, solves, rIterations atomic.Int64
}

// Add accumulates a run's counters. Safe for concurrent use.
func (a *AtomicCounters) Add(c Counters) {
	a.builds.Add(int64(c.Builds))
	a.refills.Add(int64(c.Refills))
	a.solves.Add(int64(c.Solves))
	a.rIterations.Add(int64(c.RIterations))
}

// Snapshot returns the accumulated totals as a plain Counters value.
// Safe for concurrent use.
func (a *AtomicCounters) Snapshot() Counters {
	return Counters{
		Builds:      int(a.builds.Load()),
		Refills:     int(a.refills.Load()),
		Solves:      int(a.solves.Load()),
		RIterations: int(a.rIterations.Load()),
	}
}
