package sweep

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
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
	// Strict makes every certification failure a hard trial error: no
	// degradation to simulation, ever.
	Strict bool
	// AllowDegraded lets an analytic trial whose retry budget is spent
	// fall back to the discrete-event simulator for the failed classes.
	// Degraded results are flagged in the result and manifest and are
	// never cached.
	AllowDegraded bool
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

// The retry policy for an analytic trial whose fixed point did not
// converge: up to maxRetries extra attempts, each with the fixed-point
// iteration budget multiplied by retryScale. Before retry n the trial
// pauses retryDelay(retryBackoff, key, n): the base doubles per retry,
// and a deterministic per-trial jitter (hashed from the trial key)
// staggers a grid of boundary trials so they don't refire in lockstep.
// The pauses taken are recorded per trial in the manifest.
const (
	maxRetries   = 2
	retryScale   = 4
	retryBackoff = 25 * time.Millisecond
)

// Trial statuses recorded in the run manifest.
const (
	StatusOK       = "ok"
	StatusCached   = "cached"
	StatusDegraded = "degraded"
	StatusError    = "error"
	StatusPanic    = "panic"
	StatusCanceled = "canceled"
)

// TrialResult is the outcome of one trial. Only the fields with JSON
// tags enter the results artifact — execution metadata (status, timing,
// attempts) lives in the manifest, so result artifacts are byte-identical
// across runs regardless of worker count or cache temperature.
type TrialResult struct {
	Index  int                `json:"index"`
	Key    string             `json:"key"`
	Method Method             `json:"method"`
	Point  map[string]float64 `json:"point,omitempty"`
	Values map[string]float64 `json:"values,omitempty"`
	Err    string             `json:"err,omitempty"`
	// Degraded marks values produced (partly) by the simulation fallback
	// instead of a certified analytic solve. omitempty keeps healthy
	// artifacts byte-identical to pre-certification runs.
	Degraded bool `json:"degraded,omitempty"`

	Status   string        `json:"-"`
	Attempts int           `json:"-"`
	Elapsed  time.Duration `json:"-"`
	Backoff  time.Duration `json:"-"` // total retry backoff slept, manifest-only
	Kind     string        `json:"-"` // failure-taxonomy label, manifest-only
	// Counters are the trial's solver-pipeline statistics (zero for
	// cached trials and non-analytic methods); manifest-only, summed
	// into Manifest.Pipeline.
	Counters core.Counters `json:"-"`
}

// TrialStatus is the manifest's per-trial execution record.
type TrialStatus struct {
	Index    int    `json:"index"`
	Key      string `json:"key"`
	Status   string `json:"status"`
	Attempts int    `json:"attempts,omitempty"`
	Millis   int64  `json:"millis"`
	// BackoffMillis is the total exponential-backoff delay slept between
	// this trial's retry attempts (0 for first-try successes; omitted so
	// healthy manifests are unchanged).
	BackoffMillis int64  `json:"backoffMillis,omitempty"`
	Err           string `json:"err,omitempty"`
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
	Degraded        int     `json:"degraded,omitempty"`
	Panics          int     `json:"panics"`
	Retries         int     `json:"retries"`
	Canceled        int     `json:"canceled"`
	WallMillis      int64   `json:"wallMillis"`
	TrialsPerSec    float64 `json:"trialsPerSec"`
	// Pipeline sums the per-trial solver-pipeline counters — chains built
	// vs refilled in place, QBD solves and total R-matrix iterations.
	// Omitted when no analytic solver work ran (all-cached or
	// all-simulation runs).
	Pipeline *core.Counters `json:"pipeline,omitempty"`
	// CacheRecovery reports what the disk cache's recovery-on-open had to
	// repair (quarantined records, torn-tail bytes, legacy records).
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

// runOne executes a single trial with cache lookup, panic isolation and
// retry-with-escalated-iteration-budget on fixed-point non-convergence.
// Retries pause under exponential backoff with deterministic per-trial
// jitter; ctx cuts both the backoff sleep and (via ExecPolicy.Ctx) the
// solver's iteration loops. An all-unstable or degraded outcome is
// final, never retried. ses is the worker's session.
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

	// Escalate the fixed-point budget before going again: some grid
	// points near the stability boundary converge slowly. The backoff
	// pause precedes the re-fire; a run canceled mid-pause records the
	// trial as canceled rather than burning another attempt.
	escalate := func(attempt int) bool {
		if t.Solve.MaxIterations == 0 {
			t.Solve.MaxIterations = 200 // core's default
		}
		t.Solve.MaxIterations *= retryScale
		d := retryDelay(retryBackoff, r.Key, attempt)
		r.Backoff += d
		timer := time.NewTimer(d)
		defer timer.Stop()
		select {
		case <-timer.C:
			return true
		case <-ctx.Done():
			return false
		}
	}
	for attempt := 1; ; attempt++ {
		r.Attempts = attempt
		pol := ExecPolicy{
			Strict:        opts.Strict,
			AllowDegraded: opts.AllowDegraded,
			FinalAttempt:  attempt > maxRetries,
			SolveParallel: opts.SolveParallel,
			Newton:        opts.Newton,
			Ctx:           ctx,
		}
		out, err := attemptTrial(t, pol, ses)
		retryable := t.Method == MethodAnalytic && attempt <= maxRetries
		switch {
		case err == errPanic:
			r.Status = StatusPanic
			r.Err = fmt.Sprintf("panic in trial %d (%s)", index, t.Method)
			r.Kind = "panic"
			return r
		case err != nil && retryable && errors.Is(err, certify.ErrNotConverged):
			// A typed non-convergence is the one retryable failure kind.
			if !escalate(attempt) {
				r.Status = StatusCanceled
				r.Err = ctx.Err().Error()
				return r
			}
			continue
		case err != nil:
			r.Status = StatusError
			r.Err = err.Error()
			r.Kind = certify.KindLabel(err)
			return r
		case !out.Converged && !out.Degraded && retryable:
			if !escalate(attempt) {
				r.Status = StatusCanceled
				r.Err = ctx.Err().Error()
				return r
			}
			continue
		}
		r.Values = out.Values
		if out.Result != nil {
			r.Counters = out.Result.Counters
		}
		if out.Degraded {
			// Degraded values are second-class: flagged in the result and
			// manifest, and never cached — a future run with a healthier
			// numeric path gets to replace them with a certified solve.
			r.Status = StatusDegraded
			r.Degraded = true
			return r
		}
		r.Status = StatusOK
		if opts.Cache != nil && !opts.Newton {
			if cerr := opts.Cache.Put(r.Key, out.Values); cerr != nil {
				r.Err = cerr.Error() // persisted result lost, values intact
			}
		}
		return r
	}
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

// retryDelay is the pause before retry number n (n = 1 after the first
// failed attempt): base·2^(n-1), scaled by a deterministic jitter factor
// in [0.5, 1) hashed from the trial key. Jitter staggers a grid of
// boundary trials that would otherwise all refire together; hashing it
// from the key keeps identical runs identically timed, so manifests stay
// reproducible.
func retryDelay(base time.Duration, key string, n int) time.Duration {
	d := base << uint(n-1)
	h := fnv.New64a()
	h.Write([]byte(key))
	factor := 0.5 + float64(h.Sum64()%1000)/2000
	return time.Duration(float64(d) * factor)
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
		case StatusDegraded:
			m.Executed++
			m.Degraded++
		case StatusError:
			m.Executed++
			m.Errors++
		case StatusPanic:
			m.Executed++
			m.Panics++
		case StatusCanceled:
			m.Canceled++
		}
		if r.Attempts > 1 {
			m.Retries += r.Attempts - 1
		}
		m.PerTrial = append(m.PerTrial, TrialStatus{
			Index: r.Index, Key: r.Key, Status: r.Status,
			Attempts: r.Attempts, Millis: r.Elapsed.Milliseconds(),
			BackoffMillis: r.Backoff.Milliseconds(), Err: r.Err,
			Kind: r.Kind,
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
