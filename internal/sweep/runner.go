package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/certify"
	"repro/internal/core"
)

// Options control sweep execution.
type Options struct {
	// Name labels the run in its manifest (Execute uses the spec name
	// when this is empty).
	Name string
	// Workers sizes the pool; 0 means runtime.NumCPU().
	Workers int
	// Cache, when non-nil, is consulted before executing each trial and
	// updated with every successful result.
	Cache *Cache
	// Progress, when non-nil, is called after every finished trial with
	// the completion count (calls are serialized).
	Progress func(done, total int, r TrialResult)
	// SolveParallel sets each analytic trial's intra-solve parallelism
	// (core.SolveOptions.Parallel): ≤ 1 — the default — keeps every
	// solve on the historical serial path, because the trial grid is
	// the sweep's primary parallelism axis; N > 1 dispatches each
	// solve's per-class QBDs onto a bounded N-worker group. The setting
	// never changes a result bit — per-class solves are independent and
	// merge in class order — so cache keys and artifacts are identical
	// whatever it is, and it is deliberately kept out of Trial hashing.
	SolveParallel int
	// Newton enables the Newton-class cyclic-reduction rung in each
	// analytic trial's R-matrix ladder (qbd.RMatrixOptions.Newton), which
	// pays off on large repeating blocks. Newton solutions are certified
	// like every rung but may differ from the classical reduction within
	// the certification tolerance, so they are never written to the
	// cache; the cache stays a store of default-ladder values that any run
	// mode can safely read.
	Newton bool
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.NumCPU()
	}
	return o
}

// Trial statuses recorded in the run manifest.
const (
	StatusOK       = "ok"
	StatusCached   = "cached"
	StatusError    = "error"
	StatusPanic    = "panic"
	StatusCanceled = "canceled"
)

// TrialResult is the outcome of one trial. Only the fields with JSON
// tags enter the results artifact — execution metadata (status, timing,
// failure kind) lives in the manifest, so result artifacts are
// byte-identical across runs regardless of worker count or cache
// temperature.
type TrialResult struct {
	Index  int                `json:"index"`
	Key    string             `json:"key"`
	Method Method             `json:"method"`
	Point  map[string]float64 `json:"point,omitempty"`
	Values map[string]float64 `json:"values,omitempty"`
	Err    string             `json:"err,omitempty"`

	Status  string        `json:"-"`
	Elapsed time.Duration `json:"-"`
	Kind    string        `json:"-"` // failure-taxonomy label, manifest-only
	// Counters are the trial's solver-pipeline statistics, failed
	// attempts included (zero for cached trials and non-analytic
	// methods); manifest-only, summed into Manifest.Pipeline.
	Counters core.Counters `json:"-"`
}

// TrialStatus is the manifest's per-trial execution record.
type TrialStatus struct {
	Index  int    `json:"index"`
	Key    string `json:"key"`
	Status string `json:"status"`
	Millis int64  `json:"millis"`
	Err    string `json:"err,omitempty"`
	// Kind is the failure-taxonomy label of the trial's error ("config",
	// "numeric", "not-converged", ...), empty for healthy trials.
	Kind string `json:"kind,omitempty"`
}

// Manifest summarizes a run for reproducibility audits: what was asked,
// what actually executed, and how the cache behaved.
type Manifest struct {
	Name     string `json:"name"`
	SpecHash string `json:"specHash,omitempty"`
	Seed     int64  `json:"seed"`
	Workers  int    `json:"workers"`
	// GoMaxProcs is runtime.GOMAXPROCS(0) at run time. Committed next to
	// Workers because the pair is what makes a throughput number
	// interpretable: 8 workers on 1 schedulable CPU measures dispatch
	// overhead, not parallelism.
	GoMaxProcs int `json:"gomaxprocs"`
	// SolveParallel echoes Options.SolveParallel when set above 1.
	SolveParallel int `json:"solveParallel,omitempty"`
	// ParallelismNote is set when the run asked for a multi-worker pool
	// on a single schedulable CPU — the configuration in which the pool
	// is pure overhead and "parallel" sweeps run slower than serial.
	// Recorded so the regression is self-diagnosing in the manifest
	// instead of silently poisoning throughput comparisons.
	ParallelismNote string  `json:"parallelismNote,omitempty"`
	Trials          int     `json:"trials"`
	Executed        int     `json:"executed"`
	CacheHits       int     `json:"cacheHits"`
	CacheHitRate    float64 `json:"cacheHitRate"`
	Errors          int     `json:"errors"`
	Panics          int     `json:"panics"`
	Canceled        int     `json:"canceled"`
	WallMillis      int64   `json:"wallMillis"`
	TrialsPerSec    float64 `json:"trialsPerSec"`
	// Pipeline sums the per-trial solver-pipeline counters — chains built
	// vs refilled in place, QBD solves and total R-matrix iterations.
	// Omitted when no analytic solver work ran (all-cached or
	// all-simulation runs).
	Pipeline *core.Counters `json:"pipeline,omitempty"`
	// CacheRecovery reports what the disk cache's recovery-on-open had to
	// repair (quarantined records, torn-tail bytes).
	// Omitted for healthy caches, so their manifests are unchanged.
	CacheRecovery *CacheRecovery `json:"cacheRecovery,omitempty"`
	PerTrial      []TrialStatus  `json:"perTrial"`
}

// Run is a completed (possibly partially, when canceled) sweep.
type Run struct {
	Results  []TrialResult
	Manifest Manifest
}

// Execute expands the spec and runs its grid.
func Execute(ctx context.Context, spec *Spec, opts Options) (*Run, error) {
	trials, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	if opts.Name == "" {
		opts.Name = spec.Name
	}
	run, err := RunTrials(ctx, trials, opts)
	if run != nil {
		run.Manifest.SpecHash = spec.Hash()
		run.Manifest.Seed = spec.Seed
	}
	return run, err
}

// RunTrials executes an explicit trial list on the worker pool. Workers
// take trials from one shared queue, and each threads its own
// core.Session through the trials it runs, so consecutive solves reuse
// chain structure; a session solve is bit-for-bit the one-shot solve, so
// results do not depend on which worker ran which trial. Results are
// indexed like the input regardless of completion order. The only error
// returned is ctx.Err() after cancellation or deadline — per-trial
// failures (including panics) are isolated into their TrialResult.
func RunTrials(ctx context.Context, trials []Trial, opts Options) (*Run, error) {
	opts = opts.withDefaults()
	start := time.Now()
	results := make([]TrialResult, len(trials))

	var done atomic.Int64
	var progressMu sync.Mutex
	report := func(i int) {
		n := int(done.Add(1))
		if opts.Progress != nil {
			progressMu.Lock()
			opts.Progress(n, len(trials), results[i])
			progressMu.Unlock()
		}
	}

	var wg sync.WaitGroup
	indices := make(chan int)
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ses := newSession()
			for i := range indices {
				results[i] = runOne(ctx, trials[i], i, opts, ses)
				if results[i].Status == StatusPanic {
					// The panic may have torn the session mid-update.
					ses = newSession()
				}
				report(i)
			}
		}()
	}
feed:
	for i := range trials {
		select {
		case indices <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(indices)
	wg.Wait()

	// Mark trials never started (canceled before being fed).
	for i := range results {
		if results[i].Status == "" {
			results[i] = TrialResult{
				Index: i, Key: trials[i].Key(), Method: trials[i].Method,
				Point: trials[i].Point, Status: StatusCanceled,
				Err: context.Canceled.Error(),
			}
		}
	}

	run := &Run{Results: results}
	run.Manifest = buildManifest(opts, results, time.Since(start))
	return run, ctx.Err()
}

// runOne executes a single trial: cache lookup, then one attempt behind
// the worker's panic barrier — the same single attempt a served request
// gets. A fixed point that runs out of budget is a typed not-converged
// error, never a result: its values are not a fixed point, so they are
// neither recorded nor cached. An all-unstable outcome is final. ses is
// the worker's session.
func runOne(ctx context.Context, t Trial, index int, opts Options, ses *core.Session) (r TrialResult) {
	start := time.Now()
	r = TrialResult{Index: index, Key: t.Key(), Method: t.Method, Point: t.Point}
	defer func() { r.Elapsed = time.Since(start) }()

	if opts.Cache != nil {
		if v, ok := opts.Cache.Get(r.Key); ok {
			r.Values, r.Status = v, StatusCached
			return r
		}
	}

	// The trial's counters are what its attempt added to the session's,
	// so a failed attempt reports the work it did too; for a healthy one
	// this is exactly out.Result.Counters.
	before := ses.Counters()
	out, err := attemptTrial(t, ExecPolicy{
		SolveParallel: opts.SolveParallel,
		Newton:        opts.Newton,
		Ctx:           ctx,
	}, ses)
	r.Counters = ses.Counters()
	r.Counters.Sub(before)
	if err == nil && !out.Converged {
		err = out.Result.ConvergenceErr()
	}
	switch {
	case err == errPanic:
		r.Status = StatusPanic
		r.Err = fmt.Sprintf("panic in trial %d (%s)", index, t.Method)
		r.Kind = "panic"
		return r
	case err != nil:
		r.Status = StatusError
		r.Err = err.Error()
		r.Kind = certify.KindLabel(err)
		return r
	}
	r.Values, r.Status = out.Values, StatusOK
	if opts.Cache != nil && !opts.Newton {
		if cerr := opts.Cache.Put(r.Key, out.Values); cerr != nil {
			r.Err = cerr.Error() // persisted result lost, values intact
		}
	}
	return r
}

var errPanic = fmt.Errorf("sweep: trial panicked")

// newSession builds a worker's session. The zero options always
// validate, so NewSession cannot fail here.
func newSession() *core.Session {
	ses, err := core.NewSession(core.SolveOptions{})
	if err != nil {
		panic("sweep: " + err.Error())
	}
	return ses
}

// attemptTrial runs one Exec attempt behind the worker's panic barrier.
func attemptTrial(t Trial, pol ExecPolicy, ses *core.Session) (out Outcome, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			out, err = Outcome{}, errPanic
		}
	}()
	return Exec(t, pol, ses)
}

func buildManifest(opts Options, results []TrialResult, wall time.Duration) Manifest {
	m := Manifest{
		Name:       opts.Name,
		Workers:    opts.Workers,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Trials:     len(results),
		WallMillis: wall.Milliseconds(),
	}
	if opts.SolveParallel > 1 {
		m.SolveParallel = opts.SolveParallel
	}
	if m.Workers > 1 && m.GoMaxProcs == 1 {
		m.ParallelismNote = fmt.Sprintf(
			"%d workers on GOMAXPROCS=1: the pool serializes on one CPU and its dispatch is pure overhead; expect this run to be slower than workers=1",
			m.Workers)
	}
	if wall > 0 {
		m.TrialsPerSec = float64(len(results)) / wall.Seconds()
	}
	var pipeline core.Counters
	for _, r := range results {
		pipeline.Add(r.Counters)
		switch r.Status {
		case StatusCached:
			m.CacheHits++
		case StatusOK:
			m.Executed++
		case StatusError:
			m.Executed++
			m.Errors++
		case StatusPanic:
			m.Executed++
			m.Panics++
		case StatusCanceled:
			m.Canceled++
		}
		m.PerTrial = append(m.PerTrial, TrialStatus{
			Index: r.Index, Key: r.Key, Status: r.Status,
			Millis: r.Elapsed.Milliseconds(), Err: r.Err, Kind: r.Kind,
		})
	}
	if m.Trials > 0 {
		m.CacheHitRate = float64(m.CacheHits) / float64(m.Trials)
	}
	if pipeline.Solves > 0 {
		m.Pipeline = &pipeline
	}
	if opts.Cache != nil {
		if rec := opts.Cache.Recovery(); rec != (CacheRecovery{}) {
			m.CacheRecovery = &rec
		}
	}
	return m
}
