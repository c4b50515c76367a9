package serve

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/certify"
	"repro/internal/certify/faultinject"
	"repro/internal/core"
	"repro/internal/sweep"
)

// testHookBeforeSolve, when non-nil, is called by a shard immediately
// before it solves a task. Tests install a blocking hook to hold a solve
// in flight deterministically (coalescing, deadline and drain proofs).
var testHookBeforeSolve func(t sweep.Trial)

// task is one solve handed to a shard. out is buffered so a shard can
// always deliver its answer and move on, even when the waiter gave up at
// its deadline.
type task struct {
	trial         sweep.Trial
	allowDegraded bool
	ctx           context.Context
	out           chan taskResult
}

type taskResult struct {
	resp *SolveResponse
	err  error
}

// errShardPanic is the typed 500 a shard returns when a solve panicked.
// The panic is contained to the one task: the worker recycles its
// (possibly corrupted) session and keeps serving.
var errShardPanic = errors.New("serve: solver panicked; shard session recycled")

// shard is one solver worker: a goroutine owning a core.Session. All
// requests with the same structural signature route to the same shard,
// so the session's per-class chains refill in place. The session
// pointer is atomic because a panic or a breaker trip replaces it while
// the /metrics scraper is summing counters.
type shard struct {
	id    int
	tasks chan *task
	ses   atomic.Pointer[core.Session]
	brk   *breaker
}

// session returns the shard's live session.
func (sh *shard) session() *core.Session { return sh.ses.Load() }

// recycle replaces the shard's session with a fresh one — after a panic
// (the old session's internals may be torn mid-update) or a breaker
// trip (its state is implicated in the failure streak).
// The retired session's counters move to the pool accumulator so the
// /metrics pipeline totals stay monotone.
func (sh *shard) recycle(p *pool) {
	ses, err := core.NewSession(core.SolveOptions{Parallel: p.parallel})
	if err != nil {
		// Cannot happen: the same options built the original session.
		return
	}
	old := sh.ses.Swap(ses)
	p.retireMu.Lock()
	p.retired.Add(old.Counters())
	p.retireMu.Unlock()
}

// pool is the set of shards plus the close handshake. The mutex
// serializes dispatch sends against close: close() takes the write lock
// after flipping closed, so no dispatch can be mid-send on a channel
// being closed.
type pool struct {
	shards   []*shard
	parallel int // intra-solve per-class parallelism, core.SolveOptions.Parallel
	mu       sync.RWMutex
	closed   bool
	wg       sync.WaitGroup

	// retired accumulates the pipeline counters of recycled sessions.
	retireMu sync.Mutex
	retired  core.Counters

	// onPanic, onBreakerReject and onSolved (when set, before traffic
	// starts) observe each contained shard panic, each breaker-rejected
	// dispatch, and each successfully executed shard solve — the metrics
	// hooks.
	onPanic         func()
	onBreakerReject func()
	onSolved        func(*SolveResponse)
}

// newPool starts n shard workers. parallel is each solve's per-class
// dispatch width (core.SolveOptions.Parallel): shards are the
// serving layer's primary parallelism axis, so the usual setting is 1;
// a wide solve on a lightly sharded deployment is the opposing lever.
// brkThreshold/brkCooldown configure each shard's circuit breaker
// (threshold ≤ 0 disables); now is the breaker clock (nil = time.Now)
// and onBreaker its transition hook, both injectable for tests.
func newPool(n int, parallel int, brkThreshold int, brkCooldown time.Duration,
	now func() time.Time, onBreaker func(shardID, from, to int)) (*pool, error) {
	p := &pool{parallel: parallel}
	for i := 0; i < n; i++ {
		ses, err := core.NewSession(core.SolveOptions{Parallel: parallel})
		if err != nil {
			return nil, err
		}
		sh := &shard{id: i, tasks: make(chan *task, 64)}
		sh.ses.Store(ses)
		var hook func(from, to int)
		if onBreaker != nil {
			id := i
			hook = func(from, to int) { onBreaker(id, from, to) }
		}
		sh.brk = newBreaker(brkThreshold, brkCooldown, now, hook)
		p.shards = append(p.shards, sh)
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for tk := range sh.tasks {
				tk.out <- runTask(p, sh, tk)
			}
		}()
	}
	return p, nil
}

// runTask executes one task on its shard with panic containment and
// breaker accounting. A panicking solve is contained to this task: the
// worker recycles the session (its internals may be torn mid-update)
// and answers a typed 500. Countable failures (anything that is not the
// request's own fault — config — or the client's clock — deadline,
// cancellation) feed the breaker; a trip also recycles the session so
// the next admitted task starts from a fresh session.
func runTask(p *pool, sh *shard, tk *task) taskResult {
	if tk.ctx.Err() != nil {
		// The waiter is already gone; don't burn solver time on it.
		sh.brk.cancelProbe()
		return taskResult{err: deadlineFailure(tk.ctx, "serve.queue")}
	}
	if hook := testHookBeforeSolve; hook != nil {
		hook(tk.trial)
	}
	resp, err := solveShielded(p, sh, tk)
	if resp != nil {
		resp.Shard = sh.id
		if p.onSolved != nil {
			p.onSolved(resp)
		}
	}
	panicked := errors.Is(err, errShardPanic)
	if panicked {
		sh.recycle(p)
		if p.onPanic != nil {
			p.onPanic()
		}
	}
	if tripped := sh.brk.report(err != nil && failureCounts(err)); tripped && !panicked {
		sh.recycle(p)
	}
	return taskResult{resp: resp, err: err}
}

// solveShielded runs one request on the shard's session behind a
// recover barrier, plus the "serve.task" fault-injection point chaos
// tests use to panic or fail a shard on demand. The solve is a sweep
// trial's single attempt (sweep.Exec), so served and batch
// answers come from one code path and fail the same way; the request
// context threads into the QBD iteration loops, so the deadline
// interrupts a runaway solve mid-R-iteration instead of waiting for it
// to finish.
func solveShielded(p *pool, sh *shard, tk *task) (resp *SolveResponse, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			resp, err = nil, fmt.Errorf("%w: %v", errShardPanic, rec)
		}
	}()
	if ferr := faultinject.Fire("serve.task", tk.trial); ferr != nil {
		return nil, ferr
	}
	out, err := sweep.Exec(tk.trial, sweep.ExecPolicy{
		AllowDegraded: tk.allowDegraded,
		SolveParallel: p.parallel,
		Ctx:           tk.ctx,
	}, sh.session())
	if err != nil {
		return nil, err
	}
	return responseFromOutcome(tk.trial, out), nil
}

// responseFromOutcome shapes an executed trial as a served answer: the
// numbers of its value map, exactly as a disk-tier hit rehydrates them,
// plus what only a live solve has — the fixed point's verdict, each
// class's utilization, certificate and sp(R), the typed failure of a
// class the simulation replaced, and the pipeline counters.
func responseFromOutcome(t sweep.Trial, out sweep.Outcome) *SolveResponse {
	res := out.Result
	resp := responseFromValues(t.Key(), t.Method, out.Values)
	resp.Converged, resp.Degraded = out.Converged, out.Degraded
	resp.Counters = res.Counters
	resp.values = out.Values
	for p := range resp.Classes {
		cr, ca := &res.Classes[p], &resp.Classes[p]
		ca.Rho, ca.Certificate, ca.SpectralRadiusR = cr.Rho, cr.Cert, cr.SpectralRadiusR
		if cr.Err != nil {
			ca.Degraded = true
			ca.Error, ca.Kind = cr.Err.Error(), certify.KindLabel(cr.Err)
		}
	}
	return resp
}

// failureCounts reports whether an error is evidence against the shard:
// config errors are the request's fault, deadline/cancellation the
// client's clock, drain the server's own choice — none says the shard's
// solver or session state is sick.
func failureCounts(err error) bool {
	switch {
	case errors.Is(err, certify.ErrConfig),
		errors.Is(err, certify.ErrDeadline),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, errDraining):
		return false
	}
	return true
}

// shardFor routes a trial to its home shard: an FNV-1a hash of the
// structural signature, so equal-structure requests always share a
// session and its built chains.
func (p *pool) shardFor(t sweep.Trial) int {
	h := fnv.New32a()
	h.Write([]byte(sweep.StructuralKey(t)))
	return int(h.Sum32() % uint32(len(p.shards)))
}

// dispatch routes the trial to its shard and waits for the answer or the
// request's deadline, whichever comes first. A task whose waiter left at
// the deadline is still solved (the shard was already committed) but its
// buffered out channel lets the shard move on immediately. A shard whose
// breaker is open rejects up front with a typed 503 carrying the
// cooldown remaining.
func (p *pool) dispatch(ctx context.Context, t sweep.Trial, allowDegraded bool) (*SolveResponse, error) {
	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		return nil, errDraining
	}
	sh := p.shards[p.shardFor(t)]
	ok, retry, probe := sh.brk.allow()
	if !ok {
		p.mu.RUnlock()
		if p.onBreakerReject != nil {
			p.onBreakerReject()
		}
		return nil, &breakerOpenError{retry: retry}
	}
	tk := &task{trial: t, allowDegraded: allowDegraded, ctx: ctx, out: make(chan taskResult, 1)}
	select {
	case sh.tasks <- tk:
		p.mu.RUnlock()
	case <-ctx.Done():
		p.mu.RUnlock()
		if probe {
			// The admitted probe never reached the shard; free the slot so
			// the breaker can probe again.
			sh.brk.cancelProbe()
		}
		return nil, deadlineFailure(ctx, "serve.enqueue")
	}
	select {
	case r := <-tk.out:
		return r.resp, r.err
	case <-ctx.Done():
		return nil, deadlineFailure(ctx, "serve.wait")
	}
}

// deadlineFailure wraps a request context's termination as a typed
// deadline failure, so the client sees kind "deadline" whether the solve
// noticed the cancellation itself mid-iteration or the waiter left
// first. The context error stays in the chain, so statusFor still tells
// a deadline (504) from a client disconnect (503).
func deadlineFailure(ctx context.Context, stage string) error {
	return &certify.Failure{Kind: certify.ErrDeadline, Stage: stage, Err: ctx.Err()}
}

// counters sums the pipeline statistics of every shard's live session
// plus every retired (recycled) session — the /metrics scrape path, safe
// mid-solve because Session.Counters is atomic and the session pointers
// are too. Including retired sessions keeps the totals monotone across
// panic/breaker recycles.
func (p *pool) counters() core.Counters {
	p.retireMu.Lock()
	c := p.retired
	p.retireMu.Unlock()
	for _, sh := range p.shards {
		c.Add(sh.session().Counters())
	}
	return c
}

// breakerStates returns each shard's current breaker state token, in
// shard order — the /metrics gauge.
func (p *pool) breakerStates() []string {
	states := make([]string, len(p.shards))
	for i, sh := range p.shards {
		states[i] = sh.brk.stateName()
	}
	return states
}

// close stops accepting work, lets every shard finish its queue, and
// waits for the workers to exit.
func (p *pool) close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	for _, sh := range p.shards {
		close(sh.tasks)
	}
	p.mu.Unlock()
	p.wg.Wait()
}
