// Package serve is gangserved's engine: the paper's steady-state
// gang-scheduling analysis as an online service instead of a batch run.
//
// A request travels admission → decode → answer store → coalesce →
// shard. The admission controller is a token bucket that sheds excess
// load with 429 + Retry-After before a byte of the body is read. The
// decoder is strict (unknown fields, oversized bodies and non-finite
// parameters are typed certify.ErrConfig, mapped to 400). The answer
// store is two-tier: an in-process memo of full responses with
// certificates, over the PR 1 content-addressed sweep cache shared with
// gangsweep batch runs. Identical in-flight solves coalesce
// singleflight-style into one solver call. What remains lands on a pool
// of core.Session workers sharded by structural signature — requests
// building the same state space always hit the same shard, so its
// session refills generators in place instead of rebuilding them. A
// session solve is bit-for-bit the one-shot solve, so a served answer
// depends only on the request.
//
// Every served result carries its certify.Certificate, and the failure
// taxonomy maps onto HTTP statuses (ErrConfig→400, ErrNotConverged→422,
// numeric breakdowns→500). A class that cannot be solved fails the
// whole request: the classes are coupled, so there is no partial answer.
// GET /metrics exposes the whole pipeline — request counters, latency
// histograms, cache/coalesce/shed counters, and the live per-shard
// solver counters — in Prometheus text format.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"time"

	"repro/internal/certify"
	"repro/internal/sweep"
)

// Config sizes and gates the server. The zero value serves: all-core
// shards, 1 MiB bodies, 30 s request deadline, no admission limit, no
// disk cache.
type Config struct {
	// Shards is the number of solver workers; requests route to them by
	// structural signature. 0 means GOMAXPROCS.
	Shards int
	// Rate and Burst configure the admission token bucket in requests
	// per second; Rate 0 disables admission control.
	Rate  float64
	Burst int
	// MaxBody bounds request bodies in bytes. Default 1 MiB.
	MaxBody int64
	// DefaultTimeout is the per-request solve deadline when the request
	// does not set timeoutMillis. Default 30 s; negative means none.
	DefaultTimeout time.Duration
	// CacheDir attaches the shared on-disk answer store (the gangsweep
	// cache format). Empty means memo-only.
	CacheDir string
	// MemoCap bounds the in-process response memo. Default 4096.
	MemoCap int
	// SweepWorkers caps /v1/sweep worker pools. Default GOMAXPROCS.
	SweepWorkers int
	// SolveParallel is each solve's per-class dispatch width
	// (core.SolveOptions.Parallel). Default (0) is 1: shards are the
	// serving layer's parallelism axis, so per-request solves stay
	// serial. N > 1 widens each solve; negative means GOMAXPROCS (the
	// single-tenant / few-shards lever). Any value returns bit-identical
	// answers.
	SolveParallel int
	// MaxSweepTrials bounds the grid a single /v1/sweep may expand to.
	// Default 4096.
	MaxSweepTrials int
	// CacheFsync makes the disk cache fsync after every appended record
	// (crash-safety over throughput). Off by default: the cache is a
	// rebuildable store, and recovery-on-open already contains torn tails.
	CacheFsync bool
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 1 << 20
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MemoCap <= 0 {
		c.MemoCap = 4096
	}
	if c.SweepWorkers <= 0 {
		c.SweepWorkers = runtime.GOMAXPROCS(0)
	}
	switch {
	case c.SolveParallel == 0:
		c.SolveParallel = 1 // serial per solve; shards carry the parallelism
	case c.SolveParallel < 0:
		c.SolveParallel = runtime.GOMAXPROCS(0)
	}
	if c.MaxSweepTrials <= 0 {
		c.MaxSweepTrials = 4096
	}
	return c
}

// Server is the gangserved engine behind the HTTP front.
type Server struct {
	cfg     Config
	pool    *pool
	flights flightGroup
	bucket  *tokenBucket
	store   *store
	met     *metrics
	mux     *http.ServeMux
	started time.Time
}

// New builds a Server: opens the disk cache (if configured) and starts
// the shard pool. Callers own Close.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	st, err := newStore(cfg.MemoCap, cfg.CacheDir, cfg.CacheFsync)
	if err != nil {
		return nil, err
	}
	met := newMetrics()
	p, err := newPool(cfg.Shards, cfg.SolveParallel)
	if err != nil {
		st.close()
		return nil, err
	}
	p.onPanic = func() { met.panic("shard") }
	p.onSolved = met.solveDone
	s := &Server{
		cfg:     cfg,
		pool:    p,
		bucket:  newTokenBucket(cfg.Rate, cfg.Burst),
		store:   st,
		met:     met,
		started: time.Now(),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/solve", s.handleSolve)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s, nil
}

// Handler returns the HTTP front: POST /v1/solve, POST /v1/sweep,
// GET /healthz, GET /metrics — wrapped in panic recovery, so a bug in
// any handler costs that request a 500, never the daemon.
func (s *Server) Handler() http.Handler { return s.withRecovery(s.mux) }

// withRecovery is the outermost middleware: a panicking handler is
// contained to its request and answered with a typed 500 (best-effort —
// if the handler already wrote its header the client sees a truncated
// response, which is the honest outcome of a mid-write panic).
// http.ErrAbortHandler passes through: it is net/http's own abort
// protocol, not a bug.
func (s *Server) withRecovery(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			s.met.panic("handler")
			s.writeJSON(w, "panic", http.StatusInternalServerError, errorBody{
				Error:  fmt.Sprintf("internal panic: %v", rec),
				Kind:   "panic",
				Status: http.StatusInternalServerError,
			}, start)
		}()
		next.ServeHTTP(w, r)
	})
}

// Close drains the shard pool (queued solves finish) and releases the
// disk store. Idempotent.
func (s *Server) Close() error {
	s.pool.close()
	return s.store.close()
}

// requestCtx derives the solve context: the request's own timeout wins,
// then the server default; the HTTP request context underneath carries
// client-disconnect cancellation either way.
func (s *Server) requestCtx(r *http.Request, timeoutMillis int64) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if timeoutMillis > 0 {
		d = time.Duration(timeoutMillis) * time.Millisecond
	}
	if d <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), d)
}

// admit runs the token bucket; on shed it writes the 429 itself and
// returns false.
func (s *Server) admit(w http.ResponseWriter, endpoint string, start time.Time) bool {
	ok, retry := s.bucket.allow()
	if ok {
		return true
	}
	s.met.shed.Add(1)
	sec := int(retry/time.Second) + 1
	w.Header().Set("Retry-After", fmt.Sprint(sec))
	s.writeJSON(w, endpoint, http.StatusTooManyRequests, errorBody{
		Error:  "admission: over capacity, retry later",
		Status: http.StatusTooManyRequests,
	}, start)
	return false
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if !s.admit(w, "solve", start) {
		return
	}
	req, err := DecodeSolveRequest(http.MaxBytesReader(w, r.Body, s.cfg.MaxBody), s.cfg.MaxBody)
	if err != nil {
		s.writeError(w, "solve", err, start)
		return
	}
	trial := req.trial()
	key := trial.Key()

	if cached, tier, ok := s.store.get(key, trial.Method); ok {
		s.met.cacheHit(tier)
		resp := *cached // shallow copy; stored response stays immutable
		resp.Cached, resp.CacheTier = true, tier
		resp.ElapsedMillis = time.Since(start).Milliseconds()
		s.writeJSON(w, "solve", http.StatusOK, &resp, start)
		return
	}

	ctx, cancel := s.requestCtx(r, req.TimeoutMillis)
	defer cancel()
	resp, err, joined := s.flights.do(ctx, key, func() (*SolveResponse, error) {
		resp, err := s.pool.dispatch(ctx, trial)
		if err != nil {
			return nil, err
		}
		if resp.Converged {
			// The answer is healthy: memoize it and share it with batch
			// runs.
			if perr := s.store.put(key, resp); perr != nil {
				// A full disk is the operator's problem, not the client's:
				// the answer itself is intact.
				fmt.Fprintln(os.Stderr, "gangserved: cache write:", perr)
			}
		}
		return resp, nil
	})
	if err != nil {
		s.writeError(w, "solve", err, start)
		return
	}
	if joined {
		s.met.coalesced.Add(1)
	}
	// The response may be shared — with the memo and with every joiner of
	// the same flight — so per-request fields are stamped on a copy.
	out := *resp
	out.Coalesced = joined
	status := http.StatusOK
	if !out.Converged {
		// The fixed point ran out of budget without a typed failure:
		// unprocessable at this budget, same as ErrNotConverged, but the
		// partial answer still ships in the body.
		status = http.StatusUnprocessableEntity
	}
	out.ElapsedMillis = time.Since(start).Milliseconds()
	s.writeJSON(w, "solve", status, &out, start)
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if !s.admit(w, "sweep", start) {
		return
	}
	req, err := DecodeSweepRequest(http.MaxBytesReader(w, r.Body, s.cfg.MaxBody), s.cfg.MaxBody)
	if err != nil {
		s.writeError(w, "sweep", err, start)
		return
	}
	trials, err := req.Spec.Expand()
	if err != nil {
		s.writeError(w, "sweep", &certify.Failure{Kind: certify.ErrConfig, Stage: "serve.sweep", Err: err}, start)
		return
	}
	if len(trials) > s.cfg.MaxSweepTrials {
		s.writeError(w, "sweep", confErrf("grid of %d trials exceeds the server limit of %d",
			len(trials), s.cfg.MaxSweepTrials), start)
		return
	}
	workers := req.Workers
	if workers <= 0 || workers > s.cfg.SweepWorkers {
		workers = s.cfg.SweepWorkers
	}
	ctx, cancel := s.requestCtx(r, req.TimeoutMillis)
	defer cancel()
	// The artifacts are byte-identical to a gangsweep batch run's.
	opts := sweep.Options{
		Name:          req.Spec.Name,
		Workers:       workers,
		Cache:         s.store.disk,
		SolveParallel: s.cfg.SolveParallel,
	}
	run, runErr := sweep.RunTrials(ctx, trials, opts)
	if run == nil {
		s.writeError(w, "sweep", runErr, start)
		return
	}
	run.Manifest.SpecHash = req.Spec.Hash()
	run.Manifest.Seed = req.Spec.Seed
	status := http.StatusOK
	if runErr != nil {
		// Deadline or cancellation mid-grid: the partial run ships with
		// the transport verdict's status.
		status = statusFor(runErr)
	}
	s.writeJSON(w, "sweep", status, &SweepResponse{Manifest: run.Manifest, Results: run.Results}, start)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, "healthz", http.StatusOK, map[string]any{
		"status":       "ok",
		"shards":       s.cfg.Shards,
		"uptimeMillis": time.Since(s.started).Milliseconds(),
	}, time.Now())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.write(w, s.pool.counters(), s.store.memoLen(), s.store.diskLen(), s.store.recovery())
}

func (s *Server) writeJSON(w http.ResponseWriter, endpoint string, status int, v any, start time.Time) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
	s.met.request(endpoint, status, time.Since(start))
}

// writeError maps a solver-path error onto its HTTP status via the
// failure-taxonomy table and ships it as a JSON error body. A drain's
// typed 503 carries a Retry-After so clients can tell "come back
// shortly" apart from 429's token-bucket backpressure.
func (s *Server) writeError(w http.ResponseWriter, endpoint string, err error, start time.Time) {
	status := statusFor(err)
	if ra := retryAfter(err); ra > 0 {
		w.Header().Set("Retry-After", fmt.Sprint(int(ra/time.Second)+1))
	}
	s.writeJSON(w, endpoint, status, errorBody{
		Error:  err.Error(),
		Kind:   errorLabel(err),
		Status: status,
	}, start)
}

// Drain is the graceful stop: the HTTP server stops accepting and waits
// for in-flight requests (bounded by ctx), then the shard pool finishes
// its queue and the stores flush. In-flight solves complete — they are
// milliseconds — while requests parked past ctx's deadline are abandoned
// by hs.Shutdown and answered by their handler into a closed connection.
func Drain(ctx context.Context, hs *http.Server, s *Server) error {
	serr := hs.Shutdown(ctx)
	return errors.Join(serr, s.Close())
}

// ErrForced reports that shutdown was forced by a second signal before
// the graceful drain finished.
var ErrForced = errors.New("serve: shutdown forced by second signal")

// ShutdownOnSignal blocks until the first signal, then runs drain with
// timeout. A second signal before the drain completes calls force
// (os.Exit(1) in production; recorded by tests) and returns ErrForced.
func ShutdownOnSignal(sig <-chan os.Signal, timeout time.Duration, drain func(context.Context) error, force func()) error {
	<-sig
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- drain(ctx) }()
	select {
	case err := <-done:
		return err
	case <-sig:
		force()
		return ErrForced
	}
}
