package core

import (
	"errors"

	"repro/internal/matrix"
	"repro/internal/phase"
	"repro/internal/qbd"
)

// Session runs repeated solves while reusing everything structural
// between them: the matrix workspace and each class's built chain (state
// space, block dimensions, sparsity patterns). A structural diff on every
// class decides what carries over: a rates-only change refills the
// existing generator in place, any structural change (partitioning or a
// phase order) rebuilds just that class.
//
// Reuse never changes answers: a refilled generator is bit-for-bit the
// rebuilt one and every QBD solve starts from scratch, so Resolve is
// bit-for-bit the one-shot Solve of the same model.
//
// A Session is not safe for concurrent use; run one per goroutine
// (the sweep harness threads one per worker; gangserved one per shard).
// The single exception is Counters, which is race-safe so a metrics
// scraper can read a live session mid-solve. Internally a solve may
// fan its independent per-class QBDs onto a bounded worker group
// (SolveOptions.Parallel); that concurrency is owned entirely by the
// session — each class then works out of its own workspace arena and
// the caller-facing contract is unchanged. Results returned by
// earlier Resolve calls stay valid after later ones: their measures
// read the immutable qbd.Solution and layout, not the refilled
// generator entries.
type Session struct {
	opts     SolveOptions
	ws       *matrix.Workspace
	classes  []sessionClass
	counters AtomicCounters
}

// sessionClass is the per-class state a Session carries between solves.
type sessionClass struct {
	sig   classSig
	chain *ClassChain
	// ws is the class's private workspace arena, created on first
	// parallel dispatch. Serial solves keep the session-wide arena (the
	// historical layout); parallel solves must not share one — the arena
	// is deliberately unsynchronized — so each class owns scratch sized
	// to its own chain. Buffers are zeroed at checkout, so which arena
	// serves a solve never changes a single bit of the answer.
	ws *matrix.Workspace
}

// classSig is the structural signature of one class's chain: two models
// with equal signatures enumerate identical state spaces, so the chain
// built for one can be refilled with the other's rates.
type classSig struct {
	servers, mA, mB, mG, nF, batchW int
}

func sigFor(m *Model, p int, intervisit *phase.Dist) classSig {
	c := &m.Classes[p]
	return classSig{
		servers: m.Servers(p),
		mA:      c.Arrival.Order(),
		mB:      c.Service.Order(),
		mG:      c.Quantum.Order(),
		nF:      intervisit.Order(),
		batchW:  c.MaxBatch(),
	}
}

// NewSession validates opts, applies defaults and returns a Session
// ready for Resolve. A zero SolveOptions gives the same defaults as
// Solve.
func NewSession(opts SolveOptions) (*Session, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	if opts.RMatrix.Workspace == nil {
		opts.RMatrix.Workspace = matrix.NewWorkspace()
	}
	return &Session{opts: opts, ws: opts.RMatrix.Workspace}, nil
}

// Resolve solves the model with the session's options, reusing whatever
// the structural diff against the previous model allows.
func (s *Session) Resolve(m *Model) (*Result, error) {
	return s.resolve(m, s.opts, false)
}

// ResolveWith is Resolve under per-call option overrides (defaults are
// applied; the session's workspace is used unless opts names one).
func (s *Session) ResolveWith(m *Model, opts SolveOptions) (*Result, error) {
	opts, err := s.override(opts)
	if err != nil {
		return nil, err
	}
	return s.resolve(m, opts, false)
}

// ResolveHeavyTraffic is SolveHeavyTraffic through the session: the
// Theorem 4.1 initialization only, no fixed-point refinement. Options
// are overridden as in ResolveWith.
func (s *Session) ResolveHeavyTraffic(m *Model, opts SolveOptions) (*Result, error) {
	opts, err := s.override(opts)
	if err != nil {
		return nil, err
	}
	return s.resolve(m, opts, true)
}

func (s *Session) override(opts SolveOptions) (SolveOptions, error) {
	if err := opts.Validate(); err != nil {
		return opts, err
	}
	opts = opts.withDefaults()
	if opts.RMatrix.Workspace == nil {
		opts.RMatrix.Workspace = s.ws
	}
	return opts, nil
}

// Counters returns the session's cumulative pipeline statistics across
// all Resolve calls so far. Unlike every other Session method it is safe
// for concurrent use — the accumulator is atomic, so a /metrics scrape
// can read a session owned by another goroutine mid-solve.
func (s *Session) Counters() Counters { return s.counters.Snapshot() }

// resolve is the top of the staged pipeline: validate the model, sync
// per-class session state, then run the fixed point.
// heavy caps the iteration at the Theorem 4.1 initialization.
func (s *Session) resolve(m *Model, opts SolveOptions, heavy bool) (*Result, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if heavy {
		opts.MaxIterations = 1
	}
	if len(s.classes) != m.NumClasses() {
		s.classes = make([]sessionClass, m.NumClasses())
	}
	var cnt Counters
	res, err := s.runFixedPoint(m, opts, &cnt)
	s.counters.Add(cnt)
	if res != nil {
		res.Counters = cnt
	}
	return res, err
}

// stageBuildClass is pipeline stage 2 for one class: reuse the session
// chain via an in-place refill when the structural signature matches,
// rebuild otherwise.
func (s *Session) stageBuildClass(m *Model, p int, f *phase.Dist, opts SolveOptions, cnt *Counters) (*ClassChain, error) {
	st := &s.classes[p]
	sig := sigFor(m, p, f)
	if st.chain != nil && st.sig == sig {
		ok, err := st.chain.Refill(m, p, f)
		if err != nil {
			return nil, err
		}
		if ok {
			cnt.Refills++
			return st.chain, nil
		}
	}
	ch, err := BuildClassChain(m, p, f)
	if err != nil {
		return nil, err
	}
	cnt.Builds++
	if st.chain != nil {
		// The extraction scratch is sized by truncation depth, not by
		// structure: the class keeps one set across rebuilds.
		ch.quantum = st.chain.quantum
	}
	st.sig, st.chain = sig, ch
	return ch, nil
}

// stageSolveQBD is pipeline stage 3 for one class: the certified
// matrix-geometric solve of the class's chain.
func stageSolveQBD(ch *ClassChain, opts SolveOptions, cnt *Counters) (*qbd.Solution, error) {
	cnt.Solves++
	sol, err := qbd.Solve(ch.Proc, opts.RMatrix)
	if err != nil {
		return nil, err
	}
	cnt.RIterations += sol.Cert.Iterations
	return sol, nil
}

// stageExtractQuantum is pipeline stage 4: the effective-quantum
// extraction from the solved chain (Theorem 4.3's per-class output).
func stageExtractQuantum(ch *ClassChain, sol *qbd.Solution, opts SolveOptions) (*EffectiveQuantum, error) {
	return ExtractEffectiveQuantum(ch, sol, opts.TailEps, opts.TruncationCap)
}

// solveClass chains stages 2–4 for one class and assembles its
// ClassResult (stage 5's per-class part).
func (s *Session) solveClass(m *Model, p int, f *phase.Dist, opts SolveOptions, cnt *Counters) (*ClassResult, error) {
	ch, err := s.stageBuildClass(m, p, f, opts, cnt)
	if err != nil {
		return nil, err
	}
	cr := &ClassResult{Rho: m.ClassUtilization(p), Intervisit: f, chain: ch}
	sol, err := stageSolveQBD(ch, opts, cnt)
	if errors.Is(err, qbd.ErrUnstable) {
		return cr, nil // Stable stays false
	}
	if err != nil {
		return nil, err
	}
	cr.Stable = true
	cr.Solution = sol
	cr.Cert = sol.Cert
	cr.SpectralRadiusR = sol.Cert.SpectralRadius
	cr.N, err = ch.MeanJobs(sol)
	if err != nil {
		return nil, err
	}
	cr.T = cr.N / m.ArrivalRate(p)
	cr.Effective, err = stageExtractQuantum(ch, sol, opts)
	if err != nil {
		return nil, err
	}
	return cr, nil
}
