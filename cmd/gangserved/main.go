// Command gangserved serves the gang-scheduling analysis online: a
// long-running HTTP/JSON daemon in front of a pool of solver sessions
// sharded by structural signature, with content-addressed
// answer caching, request coalescing, token-bucket admission control and
// Prometheus metrics.
//
// Usage:
//
//	gangserved                                  # :8080, all-core shards
//	gangserved -addr :9090 -shards 4
//	gangserved -cache-dir .sweepcache           # share answers with gangsweep
//	gangserved -rate 200 -burst 50              # shed load past 200 req/s
//	gangserved -timeout 10s -allow-degraded
//	gangserved -breaker-threshold 3 -breaker-cooldown 30s
//	gangserved -cache-dir .sweepcache -cache-fsync
//
// Endpoints:
//
//	POST /v1/solve   one scenario → measures + certificates
//	POST /v1/sweep   declarative sweep spec → manifest + results
//	GET  /healthz    liveness
//	GET  /metrics    Prometheus text format
//
// Example solve:
//
//	curl -s localhost:8080/v1/solve -d '{
//	  "scenario": {"processors": 8, "classes": [
//	    {"partition": 2, "lambda": 0.4, "mu": 1, "quantumMean": 1, "overheadMean": 0.01}]}}'
//
// The first SIGINT/SIGTERM drains gracefully (in-flight solves finish,
// bounded by -drain-timeout); a second signal force-exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		shards      = flag.Int("shards", 0, "solver shards (0 = GOMAXPROCS)")
		rate        = flag.Float64("rate", 0, "admission rate in requests/s (0 = unlimited)")
		burst       = flag.Int("burst", 0, "admission burst capacity (default max(1, rate))")
		maxBody     = flag.Int64("max-body", 1<<20, "request body limit in bytes")
		timeout     = flag.Duration("timeout", 30*time.Second, "default per-request solve deadline (requests may set their own; negative = none)")
		degraded    = flag.Bool("allow-degraded", false, "let opting-in requests degrade failed classes to simulation (200 with degraded:true)")
		cacheDir    = flag.String("cache-dir", "", "shared content-addressed answer store (gangsweep cache format)")
		memoCap     = flag.Int("memo-cap", 4096, "in-process full-response memo capacity")
		sweepWork   = flag.Int("sweep-workers", 0, "max workers per /v1/sweep (0 = GOMAXPROCS)")
		solvePar    = flag.Int("parallel", 1, "per-class parallelism inside each solve (1 = serial, shards carry the concurrency; -1 = GOMAXPROCS); answers are bit-identical either way")
		sweepTrials = flag.Int("max-sweep-trials", 4096, "largest grid a single /v1/sweep may expand to")
		drain       = flag.Duration("drain-timeout", 15*time.Second, "graceful shutdown bound after the first signal")
		brkThresh   = flag.Int("breaker-threshold", 5, "consecutive countable shard failures before the circuit opens (negative = disabled)")
		brkCooldown = flag.Duration("breaker-cooldown", 10*time.Second, "open-state hold before a half-open probe is admitted")
		cacheFsync  = flag.Bool("cache-fsync", false, "fsync the disk cache after every append (crash-durable at a latency cost)")
	)
	flag.Parse()

	b := *burst
	if b == 0 && *rate > 0 {
		b = int(*rate)
	}
	srv, err := serve.New(serve.Config{
		Shards:         *shards,
		Rate:           *rate,
		Burst:          b,
		MaxBody:        *maxBody,
		DefaultTimeout: *timeout,
		AllowDegraded:  *degraded,
		CacheDir:       *cacheDir,
		MemoCap:        *memoCap,
		SweepWorkers:   *sweepWork,
		MaxSweepTrials: *sweepTrials,
		SolveParallel:  *solvePar,

		BreakerThreshold: *brkThresh,
		BreakerCooldown:  *brkCooldown,
		CacheFsync:       *cacheFsync,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "gangserved:", err)
		os.Exit(1)
	}

	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	go func() {
		// A listener that dies on its own (bad -addr, stolen port) is
		// fatal; ErrServerClosed is the normal shutdown path.
		if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "gangserved:", err)
			os.Exit(1)
		}
	}()
	nshards := *shards
	if nshards <= 0 {
		nshards = runtime.GOMAXPROCS(0)
	}
	fmt.Fprintf(os.Stderr, "gangserved: listening on %s (%d shards)\n", *addr, nshards)

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	err = serve.ShutdownOnSignal(sig, *drain,
		func(ctx context.Context) error {
			fmt.Fprintln(os.Stderr, "gangserved: draining (second signal force-exits)")
			return serve.Drain(ctx, hs, srv)
		},
		func() { os.Exit(1) })
	if err != nil {
		fmt.Fprintln(os.Stderr, "gangserved: shutdown:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "gangserved: drained cleanly")
}
