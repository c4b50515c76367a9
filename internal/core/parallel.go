package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/certify"
	"repro/internal/certify/faultinject"
	"repro/internal/matrix"
	"repro/internal/phase"
)

// This file is the fixed point's dispatch layer. One Theorem 4.3
// iteration solves L per-class QBDs that are mutually independent given
// the iteration's effective quanta — they couple only at the
// intervisit rebuild barrier back in runFixedPoint — so they can run
// on a bounded worker group. The contract is strict bit-for-bit
// equivalence with the serial loop:
//
//   - every class computes the same intervisit, chain, R matrix and
//     measures whatever goroutine runs it (the inputs are the shared
//     read-only Model and quanta slice, nothing iteration-order
//     dependent);
//   - each class works out of its own workspace arena (classOpts), so
//     the unsynchronized buffer pools are never shared across
//     goroutines — and since arenas hand out zeroed buffers, arena
//     identity can never change a bit of any answer;
//   - results and counters merge back in class order, so Result and
//     Counters are identical to the serial ones field for field.

// solveClasses runs stages 2–4 for every class under the iteration's
// quanta and returns the per-class results in class order, or the
// failure of the lowest-index class that could not be solved. workers
// ≤ 1 is the historical serial path: one goroutine, the session-wide
// workspace, counters accumulated directly into cnt; it stops at the
// first failure. Parallel workers finish their classes, so both paths
// report the same class's failure.
func (s *Session) solveClasses(m *Model, quanta []*phase.Dist, opts SolveOptions, workers int, cnt *Counters) ([]*ClassResult, error) {
	l := m.NumClasses()
	out := make([]*ClassResult, l)
	if workers <= 1 {
		for p := 0; p < l; p++ {
			cr, err := s.solveOneClass(m, p, quanta, opts, cnt)
			if err != nil {
				return nil, err
			}
			out[p] = cr
		}
		return out, nil
	}

	// Bounded dispatch: workers goroutines pull class indices from an
	// atomic cursor. Each class gets a private Counters cell, error cell
	// and an opts copy backed by its private arena; nothing else is
	// written concurrently (sessionClass state is per-class, distinct
	// indices).
	cnts := make([]Counters, l)
	errs := make([]error, l)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				p := int(cursor.Add(1)) - 1
				if p >= l {
					return
				}
				out[p], errs[p] = s.solveOneClass(m, p, quanta, s.classOpts(p, opts), &cnts[p])
			}
		}()
	}
	wg.Wait()
	// Merge in class order: integer sums are order-independent, but the
	// fixed order keeps the merge obviously deterministic.
	for p := range cnts {
		cnt.Add(cnts[p])
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// solveOneClass runs stages 2–4 for class p and types any failure as
// the class's own: kind from the cause, stage core.class[p].
func (s *Session) solveOneClass(m *Model, p int, quanta []*phase.Dist, opts SolveOptions, cnt *Counters) (*ClassResult, error) {
	cr, err := s.solveClass(m, p, IntervisitFrom(m, p, quanta), opts, cnt)
	if err == nil {
		// Fault-injection point: tests fail one class here to prove its
		// failure fails the solve — including concurrently, when the
		// classes are dispatched in parallel.
		err = faultinject.Fire("core.class", p)
	}
	if err != nil {
		return nil, &certify.Failure{
			Kind:  certify.Classify(err, certify.ErrNumericContaminated),
			Stage: fmt.Sprintf("core.class[%d]", p),
			Err:   err,
		}
	}
	return cr, nil
}

// classOpts returns opts rebound to class p's private workspace arena,
// creating the arena on first use. Only parallel dispatch calls this:
// serial solves keep the session-wide arena, whose pooling across
// classes is part of the historical allocation profile.
func (s *Session) classOpts(p int, opts SolveOptions) SolveOptions {
	st := &s.classes[p]
	if st.ws == nil {
		st.ws = matrix.NewWorkspace()
	}
	opts.RMatrix.Workspace = st.ws
	return opts
}
