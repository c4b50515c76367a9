GO ?= go

.PHONY: build fmt vet test race race-full ci chaos chaos-short fuzz-short xcheck xcheck-short bench bench-sweep bench-kernel bench-pipeline bench-serve bench-scale bench-huge bench-compare

build:
	$(GO) build ./...

# fmt fails if any Go file in the tree is not gofmt-clean.
fmt:
	test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The race pass covers every package except internal/experiments: its
# figure-grid suite takes ~3 min without the detector and over 40 min
# with it on a single-CPU machine, and its only concurrency is the
# internal/sweep worker pool, which is raced directly (here and again in
# ci's explicit pass). race-full is the opt-in everything-raced run.
race:
	$(GO) test -race -timeout 30m $$($(GO) list ./... | grep -v internal/experiments)

race-full:
	$(GO) test -race -timeout 90m ./...

# ci is the gate: clean build, gofmt-clean sources, vet, and the full
# suite under the race detector. ./... covers every package, including
# the kernel-heavy ones (internal/matrix, internal/qbd, internal/core)
# whose property tests pin the in-place kernels bitwise to their
# allocating counterparts and both branches of the AVX2-or-Go kernel
# dispatch bitwise to the Go loops, and internal/sweep, the
# concurrency-heavy subsystem. The explicit
# race-mode pass over sweep and certify re-runs the fault-injection and
# degradation paths, whose hooks and worker pool are the likeliest place
# for a data race to hide. internal/serve joins the explicit list: the
# daemon's handlers, flight group, shard pool and shutdown path are all
# concurrent by construction. The GOMAXPROCS=4 passes re-run the
# per-class parallel-solve property tests and the striped-cache stress
# with four Ps even on a 1-CPU machine, so the worker group, the
# per-class workspace arenas and the cache stripes are raced with real
# interleaving rather than cooperative single-P scheduling.
ci: build fmt vet race
	$(GO) vet ./... && $(GO) test -race -count 1 ./internal/sweep/ ./internal/certify/ ./internal/core/ ./internal/serve/
	GOMAXPROCS=4 $(GO) test -race -count 1 ./internal/core/
	GOMAXPROCS=4 $(GO) test -race -count 1 -run 'TestCache' ./internal/sweep/
	GOMAXPROCS=4 $(GO) test -race -count 1 \
		-run 'TestBlockOp|TestAdoptOp|TestKronBlock|TestCSRBlock' ./internal/matrix/
	$(MAKE) chaos-short
	$(MAKE) xcheck-short

# chaos soaks the daemon under the seeded fault schedules (injected shard
# panics, numeric failures, solver latency, NaN-contaminated R iterates,
# and a pre-corrupted cache directory) with the race detector on, and
# fails on any broken invariant: a daemon death, a non-finite or
# uncertified 200, a breaker that never opens or never re-closes, or
# error counters that do not reconcile with what the clients observed.
# chaos-short is the same harness sized for the ci gate (<60 s); chaos is
# the long soak.
chaos:
	GANG_CHAOS_SECONDS=20 $(GO) test -race -count 1 -run TestChaosSoak -v ./internal/serve/

chaos-short:
	GANG_CHAOS_SECONDS=4 GOMAXPROCS=4 $(GO) test -race -count 1 -run TestChaosSoak ./internal/serve/

# fuzz-short is the soundness smoke: 30 seconds of random QBD generator
# blocks must never produce a certified-but-invalid R (once through the
# classical ladder, once with the Newton rung forced on — a failed
# Newton attempt must fall through to the classical rungs, never leak
# NaN), 30 seconds of random request bodies must never crash the
# daemon's decoder or produce an untyped rejection (every decode error
# must map to a 400), 30 seconds of arbitrary cache.jsonl bytes must
# never break recovery-on-open (no panic, no open error, and the
# repaired file must reopen pristine), and 30 seconds of random band
# matrices (order, bandwidths, entries) must leave matrix.BandLU bitwise
# equal to the dense LU, with the same singular verdict, and 30 seconds
# of random matrices of order ≤ 8 (exact zero rows, sign flips) must
# keep the spectral-radius bound non-NaN and, for a non-negative matrix,
# at or above every diagonal entry and a Collatz–Wielandt lower bound
# and above the fixed 40-squaring chain by no more than rounding; for a
# signed matrix it must be that chain bit for bit.
fuzz-short:
	$(GO) test -run '^$$' -fuzz FuzzRMatrixCertify -fuzztime 30s ./internal/certify/
	$(GO) test -run '^$$' -fuzz FuzzRMatrixNewton -fuzztime 30s ./internal/certify/
	$(GO) test -run '^$$' -fuzz FuzzBandLU -fuzztime 30s ./internal/matrix/
	$(GO) test -run '^$$' -fuzz FuzzSpectralBound -fuzztime 30s ./internal/matrix/
	$(GO) test -run '^$$' -fuzz FuzzDecodeSolveRequest -fuzztime 30s ./internal/serve/
	$(GO) test -run '^$$' -fuzz FuzzCacheRecovery -fuzztime 30s ./internal/sweep/
	$(GO) test -run '^$$' -fuzz FuzzScenarioCorpus -fuzztime 30s ./internal/xcheck/

# xcheck is the differential validation oracle (DESIGN.md §14): every
# corpus scenario is answered independently by the analytic fixed point
# and the discrete-event simulator, gated by tolerance-widened
# batch-means CIs plus metamorphic invariants. `make xcheck` runs the
# full 200-case corpus and regenerates the committed report
# (xcheck-report.json — byte-identical across runs given the seed, at
# any worker count); failure artifacts land under the gitignored
# xcheck-out/ with their replay command printed. xcheck-short is the ci
# tier: first a GOMAXPROCS=4 race pass over the oracle's machinery (the
# worker pool at two widths, a full end-to-end case, and the
# injected-bug detection test), then the 32-case corpus prefix — the
# literal first 32 cases of the committed corpus — without the
# detector. Racing the full slice is excluded for the same reason
# `race` skips internal/experiments: the solver-heavy corpus cases need
# upwards of 20 minutes under the detector on a 1-CPU machine.
xcheck:
	$(GO) run ./cmd/gangcheck -n 200 -out xcheck-report.json

xcheck-short:
	GOMAXPROCS=4 $(GO) test -race -count 1 \
		-run 'TestRunPoolDeterministic|TestCheckCaseAgrees|TestInjectedBugCaught' ./internal/xcheck/
	$(GO) run ./cmd/gangcheck -n 32 -workers 4 -quiet

bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# bench-sweep regenerates the committed serial-vs-parallel sweep
# throughput baseline (BENCH_sweep.json).
bench-sweep:
	$(GO) test -run '^$$' -bench 'BenchmarkSweep' -benchmem -count 1 ./internal/sweep | tee bench_sweep.out
	awk -f scripts/benchjson.awk bench_sweep.out > BENCH_sweep.json
	rm -f bench_sweep.out
	cat BENCH_sweep.json

# bench-kernel regenerates the committed matrix/QBD kernel baseline
# (BENCH_kernel.json): the live R-matrix solve at three block orders, the
# same large-order solve with the Newton cyclic-reduction rung enabled,
# the vendored pre-change kernel on the same inputs, the intervisit
# convolution, and the full Theorem 4.3 fixed point.
BENCH_KERNEL_RE = 'BenchmarkRMatrix$$|BenchmarkRMatrixNewton$$|BenchmarkRMatrixPre$$|BenchmarkConvolveAll$$|BenchmarkSolveFixedPoint$$'
bench-kernel:
	$(GO) test -run '^$$' -bench $(BENCH_KERNEL_RE) -benchmem -benchtime 1s -count 1 \
		./internal/qbd ./internal/phase ./internal/core | tee bench_kernel.out
	awk -f scripts/benchjson.awk bench_kernel.out > BENCH_kernel.json
	rm -f bench_kernel.out
	cat BENCH_kernel.json

# bench-pipeline regenerates the committed cold-vs-warm staged-pipeline
# baseline (BENCH_pipeline.json): the 64-trial analytic grid on one
# worker, solved cold and with warm-started sessions, comparing trials/s
# and mean R-matrix iterations per QBD solve. -count 3 interleaves the
# pair; benchjson.awk keeps each benchmark's best run, so a scheduler
# hiccup in one repetition cannot poison the committed ratio.
bench-pipeline:
	$(GO) test -run '^$$' -bench 'BenchmarkPipeline' -benchmem -benchtime 2s -count 3 \
		./internal/sweep | tee bench_pipeline.out
	awk -f scripts/benchjson.awk bench_pipeline.out > BENCH_pipeline.json
	rm -f bench_pipeline.out
	cat BENCH_pipeline.json

# bench-serve regenerates the committed serving-path baseline
# (BENCH_serve.json): full HTTP round trips through gangserved's engine
# on the three answer paths — cold-session solve, warm-shard solve
# (structure reuse + warm-started R), and memo cache hit (zero solver
# calls). -count 3 interleaves them; benchjson.awk keeps each
# benchmark's best run.
bench-serve:
	$(GO) test -run '^$$' -bench 'BenchmarkServeSolve' -benchmem -benchtime 1s -count 3 \
		./internal/serve | tee bench_serve.out
	awk -f scripts/benchjson.awk bench_serve.out > BENCH_serve.json
	rm -f bench_serve.out
	cat BENCH_serve.json

# bench-scale regenerates the committed multi-core scaling matrix
# (BENCH_scale.json): the parallel fixed point (per-class dispatch), the
# parallel sweep pool and the warm serve path at GOMAXPROCS 1/2/4/8,
# plus the panel-kernel A/B (avx2 vs the pure-Go loop). Records keep
# their -N variant, so the JSON carries per-row gomaxprocs and a
# scaling_vs_1cpu table. Rows above the machine's CPU count cannot
# scale further (one core cannot scale at all), while the kernel A/B
# measures the SIMD gain on any core count; the note field says which
# machine recorded the file.
bench-scale:
	$(GO) test -run '^$$' -bench 'BenchmarkSolveFixedPointParallel' -benchmem -benchtime 1s -count 1 \
		-cpu 1,2,4,8 ./internal/core | tee bench_scale.out
	$(GO) test -run '^$$' -bench 'BenchmarkSweepParallel$$' -benchmem -benchtime 1s -count 1 \
		-cpu 1,2,4,8 ./internal/sweep | tee -a bench_scale.out
	$(GO) test -run '^$$' -bench 'BenchmarkServeSolveWarm$$' -benchmem -benchtime 1s -count 1 \
		-cpu 1,2,4,8 ./internal/serve | tee -a bench_scale.out
	$(GO) test -run '^$$' -bench 'BenchmarkPanelKernel' -benchmem -benchtime 1s -count 1 \
		./internal/matrix | tee -a bench_scale.out
	awk -f scripts/benchjson.awk bench_scale.out > BENCH_scale.json
	rm -f bench_scale.out
	cat BENCH_scale.json

# bench-huge regenerates the committed production-scale tier
# (BENCH_huge.json): repeating blocks of order ~1000–2000 built as
# structured operators (Kronecker arrivals/completions over a dense
# phase-churn A1), each solved twice — classical logarithmic reduction
# vs the Newton cyclic-reduction rung. One iteration per variant: a
# single h2048 solve runs for minutes, so statistical iteration would
# turn the target into an hour-long soak for no extra signal.
# benchjson.awk derives newton_vs_logreduction per tier.
bench-huge:
	$(GO) test -run '^$$' -bench 'BenchmarkRMatrixHuge' -benchtime 1x -timeout 40m -count 1 \
		./internal/qbd | tee bench_huge.out
	awk -f scripts/benchjson.awk bench_huge.out > BENCH_huge.json
	rm -f bench_huge.out
	cat BENCH_huge.json

# bench-compare runs the kernel benchmarks fresh and diffs them against
# the committed BENCH_kernel.json so regressions stand out line by line
# (timings wobble; watch ns_per_op magnitudes and the ratio fields).
bench-compare:
	$(GO) test -run '^$$' -bench $(BENCH_KERNEL_RE) -benchmem -benchtime 1s -count 1 \
		./internal/qbd ./internal/phase ./internal/core \
		| awk -f scripts/benchjson.awk > bench_kernel_fresh.json
	-diff -u BENCH_kernel.json bench_kernel_fresh.json && echo "bench-compare: no drift"
	rm -f bench_kernel_fresh.json
