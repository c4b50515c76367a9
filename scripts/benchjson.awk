# benchjson.awk — convert `go test -bench` output into a committed JSON
# baseline (BENCH_sweep.json, BENCH_kernel.json, BENCH_scale.json): one
# record per benchmark variant plus environment fields and derived
# ratios. Usage:
#
#   go test -run '^$' -bench BenchmarkSweep -benchmem ./internal/sweep \
#     | awk -f scripts/benchjson.awk > BENCH_sweep.json
#
# Records are keyed by the full variant name, so a `-cpu 1,2,4,8` run
# keeps all four rows of `Foo`, `Foo-2`, `Foo-4`, `Foo-8` — each record
# carries its own "gomaxprocs" (the -N suffix; 1 when absent) instead of
# one value smeared across the file. The file-level "gomaxprocs" field
# is emitted only when every record agrees.
#
# Derived ratios are only emitted when they mean something:
#   - parallel_speedup_vs_serial compares the widest-GOMAXPROCS variants
#     of SweepSerial/SweepParallel, and is skipped when the run used a
#     single CPU (GOMAXPROCS 1 or a 1-core machine) — a pool of one
#     worker measures dispatch overhead, not parallelism, and recording
#     ~1.0 as a baseline reads as a parallelism regression on any
#     multi-core checkout.
#   - scaling_vs_1cpu appears for any benchmark measured at GOMAXPROCS 1
#     and higher: time@1cpu / time@Ncpu per variant (1.0 = flat).
#   - rmatrix_medium_* compare the live kernel against the vendored
#     pre-change kernel (BenchmarkRMatrixPre) on the medium block order.
#   - newton_vs_logreduction compares the classical logarithmic-
#     reduction ladder against the Newton cyclic-reduction rung at
#     matched block orders (>1.0 = Newton faster): the `large` row pairs
#     RMatrix/large with RMatrixNewton/large from the kernel tier, and
#     each RMatrixHuge/<tier>/{logreduction,newton} pair from the huge
#     tier contributes a row keyed by its tier name.

/^goos:/   { goos = $2 }
/^goarch:/ { goarch = $2 }
/^pkg:/    { if (pkgs != "") pkgs = pkgs ","; pkgs = pkgs $2 }
/^cpu:/    { cpu = $0; sub(/^cpu: */, "", cpu) }

/^Benchmark/ {
    full = $1
    base = full
    gmp = 1
    if (match(base, /-[0-9]+$/)) {
        gmp = substr(base, RSTART + 1) + 0   # the -N suffix is GOMAXPROCS
        base = substr(base, 1, RSTART - 1)
    }
    sub(/^Benchmark/, "", base)
    sub(/^Benchmark/, "", full)
    # With -count > 1 the same variant repeats; keep each variant's best
    # (lowest ns/op) run so one scheduler hiccup cannot poison the
    # committed baseline.
    ns = 0
    for (i = 3; i < NF; i += 2)
        if ($(i + 1) == "ns/op") ns = $(i)
    if (full in bestns && ns >= bestns[full]) next
    bestns[full] = ns
    if (!(full in seen)) {
        seen[full] = 1
        order[++n] = full
    }
    basename[full] = base
    gomax[full] = gmp
    if (!(gmp in gmpseen)) { gmpseen[gmp] = 1; ngmp++ }
    iters[full] = $2
    for (i = 3; i < NF; i += 2) {
        unit = $(i + 1)
        gsub(/\//, "_per_", unit)
        metric[full, unit] = $(i)
        if (!(unit in units)) {
            units[unit] = 1
            uorder[++nu] = unit
        }
    }
    # Per base name, remember the widest-GOMAXPROCS variant: the derived
    # ratios compare benchmarks at their most parallel measurement, and
    # at its best run, the one the benchmark's row reports.
    if (!(base in topgmp) || gmp >= topgmp[base]) {
        topgmp[base] = gmp
        for (i = 3; i < NF; i += 2) {
            unit = $(i + 1)
            gsub(/\//, "_per_", unit)
            top[base, unit] = $(i)
        }
    }
}

END {
    printf "{\n"
    printf "  \"pkg\": \"%s\",\n", pkgs
    printf "  \"goos\": \"%s\",\n", goos
    printf "  \"goarch\": \"%s\",\n", goarch
    printf "  \"cpu\": \"%s\",\n", cpu
    "nproc" | getline cpus
    printf "  \"cpus\": %d,\n", cpus
    if (ngmp <= 1) {
        uniform = 1
        for (g in gmpseen) uniform = g
        printf "  \"gomaxprocs\": %d,\n", uniform
    }
    printf "  \"benchmarks\": [\n"
    for (i = 1; i <= n; i++) {
        full = order[i]
        printf "    {\"name\": \"%s\", \"gomaxprocs\": %d, \"iters\": %s", \
            basename[full], gomax[full], iters[full]
        for (j = 1; j <= nu; j++) {
            u = uorder[j]
            if ((full, u) in metric)
                printf ", \"%s\": %s", u, metric[full, u]
        }
        printf "}%s\n", (i < n ? "," : "")
    }
    printf "  ]"
    # Multi-GOMAXPROCS scaling: for each base measured at 1 CPU and
    # wider, emit time@1cpu / time@Ncpu (1.0 = flat, >1 = real scaling).
    for (i = 1; i <= n; i++) {
        full = order[i]
        if (gomax[full] == 1 && metric[full, "ns_per_op"] > 0)
            scaleref[basename[full] "-1"] = metric[full, "ns_per_op"]
    }
    nscale = 0
    for (i = 1; i <= n; i++) {
        base = basename[order[i]]
        if (gomax[order[i]] > 1 && (base "-1") in scaleref && !(base in scaled)) {
            scaled[base] = 1
            sorder[++nscale] = base
        }
    }
    if (nscale > 0) {
        printf ",\n  \"scaling_vs_1cpu\": {"
        for (s = 1; s <= nscale; s++) {
            base = sorder[s]
            printf "%s\n    \"%s\": {", (s > 1 ? "," : ""), base
            first = 1
            for (i = 1; i <= n; i++) {
                full = order[i]
                if (basename[full] != base || gomax[full] == 1) continue
                if (metric[full, "ns_per_op"] + 0 == 0) continue
                printf "%s\"%d\": %.2f", (first ? "" : ", "), gomax[full], \
                    scaleref[base "-1"] / metric[full, "ns_per_op"]
                first = 0
            }
            printf "}"
        }
        printf "\n  }"
    }
    serial = top["SweepSerial", "ns_per_op"]
    par = top["SweepParallel", "ns_per_op"]
    warm = top["SweepWarmCache", "ns_per_op"]
    if (serial > 0 && par > 0 && cpus > 1 && topgmp["SweepParallel"] > 1)
        printf ",\n  \"parallel_speedup_vs_serial\": %.2f", serial / par
    if (serial > 0 && warm > 0)
        printf ",\n  \"warm_cache_speedup_vs_serial\": %.1f", serial / warm
    live = top["RMatrix/medium", "ns_per_op"]
    pre = top["RMatrixPre/medium", "ns_per_op"]
    if (live > 0 && pre > 0)
        printf ",\n  \"rmatrix_medium_speedup_vs_pre\": %.2f", pre / live
    livea = top["RMatrix/medium", "allocs_per_op"]
    prea = top["RMatrixPre/medium", "allocs_per_op"]
    if (livea > 0 && prea > 0)
        printf ",\n  \"rmatrix_medium_alloc_ratio_vs_pre\": %.1f", prea / livea
    # Newton rung vs the classical logarithmic reduction at matched
    # block orders (>1.0 = the Newton rung is faster).
    nvl = 0
    lglarge = top["RMatrix/large", "ns_per_op"]
    ntlarge = top["RMatrixNewton/large", "ns_per_op"]
    if (lglarge > 0 && ntlarge > 0) {
        nvlk[++nvl] = "large"
        nvlv[nvl] = lglarge / ntlarge
    }
    hugeany = 0
    for (i = 1; i <= n; i++) {
        base = basename[order[i]]
        if (base !~ /^RMatrixHuge\/.*\/logreduction$/) continue
        hugeany = 1
        tier = base
        sub(/^RMatrixHuge\//, "", tier)
        sub(/\/logreduction$/, "", tier)
        nb = "RMatrixHuge/" tier "/newton"
        if (top[base, "ns_per_op"] > 0 && top[nb, "ns_per_op"] > 0 && !(tier in nvlseen)) {
            nvlseen[tier] = 1
            nvlk[++nvl] = tier
            nvlv[nvl] = top[base, "ns_per_op"] / top[nb, "ns_per_op"]
        }
    }
    if (nvl > 0) {
        printf ",\n  \"newton_vs_logreduction\": {"
        for (s = 1; s <= nvl; s++)
            printf "%s\"%s\": %.2f", (s > 1 ? ", " : ""), nvlk[s], nvlv[s]
        printf "}"
    }
    cold = top["PipelineCold", "ns_per_op"]
    warmp = top["PipelineWarm", "ns_per_op"]
    if (cold > 0 && warmp > 0)
        printf ",\n  \"pipeline_warm_speedup_vs_cold\": %.2f", cold / warmp
    coldR = top["PipelineCold", "Riters_per_solve"]
    warmR = top["PipelineWarm", "Riters_per_solve"]
    if (coldR > 0 && warmR > 0)
        printf ",\n  \"pipeline_warm_riter_ratio_vs_cold\": %.2f", warmR / coldR
    scold = top["ServeSolveCold", "ns_per_op"]
    swarm = top["ServeSolveWarm", "ns_per_op"]
    shit = top["ServeSolveCacheHit", "ns_per_op"]
    if (scold > 0 && swarm > 0)
        printf ",\n  \"serve_warm_speedup_vs_cold\": %.2f", scold / swarm
    if (swarm > 0 && shit > 0)
        printf ",\n  \"serve_cachehit_speedup_vs_warm\": %.2f", swarm / shit
    gopanel = top["PanelKernel/n48/go", "ns_per_op"]
    avx2 = top["PanelKernel/n48/avx2", "ns_per_op"]
    if (gopanel > 0 && avx2 > 0)
        printf ",\n  \"avx2_speedup_vs_go_n48\": %.2f", gopanel / avx2
    gopanel = top["PanelKernel/n120/go", "ns_per_op"]
    avx2 = top["PanelKernel/n120/avx2", "ns_per_op"]
    if (gopanel > 0 && avx2 > 0)
        printf ",\n  \"avx2_speedup_vs_go_n120\": %.2f", gopanel / avx2
    if (nscale > 0) {
        if (cpus > 1)
            printf ",\n  \"note\": \"multi-core scaling matrix at GOMAXPROCS 1/2/4/8 (scaling_vs_1cpu: time@1cpu over time@Ncpu) plus the panel-kernel A/B (avx2 vs the pure-Go loop)\""
        else
            printf ",\n  \"note\": \"recorded on a 1-CPU machine: the GOMAXPROCS rows are honest negatives (flat, ~1.0 scaling — one core cannot scale) kept so a multi-core recorder shows real gains against the same format; the panel-kernel A/B (avx2 vs the pure-Go loop) measures real SIMD speedups even on one core\""
    }
    else if (serial > 0)
        printf ",\n  \"note\": \"64-trial analytic grid; parallel speedup (emitted only on multi-core runs) tracks the recording machine's core count, warm-cache speedup is the content-addressed cache fast path with zero solver calls\""
    else if (hugeany)
        printf ",\n  \"note\": \"production-scale tier: repeating blocks of order ~1000-2000 built from structured operators (Kronecker arrivals/completions over a dense phase-churn A1), each solved by the classical logarithmic reduction and by the Newton cyclic-reduction rung; one iteration per variant, newton_vs_logreduction is the per-tier wall-time ratio (>1.0 = Newton faster)\""
    else if (live > 0)
        printf ",\n  \"note\": \"kernel baselines: RMatrix* solve the logarithmic-reduction R on small/medium/large block orders (Pre = vendored pre-change allocating kernel; RMatrixNewton/large re-solves the large tier with the Newton cyclic-reduction rung, compared in newton_vs_logreduction), ConvolveAll builds the Theorem 4.1 intervisit chain, SolveFixedPoint runs the Theorem 4.3 fixed point end to end\""
    else if (cold > 0)
        printf ",\n  \"note\": \"64-trial analytic grid on one worker: Cold runs the staged pipeline with the cold R ladder every solve, Warm reorders trials for locality and continues each class R from the previous iterate (certified post-hoc); Riters_per_solve is the mean R-matrix iteration count per QBD solve\""
    else if (scold > 0)
        printf ",\n  \"note\": \"full HTTP round trips through gangserved on one shard: Cold solves never-seen scenarios on cold sessions, Warm solves never-seen scenarios on a warm shard (chain refill + warm-started R), CacheHit serves the identical scenario from the memo tier with zero solver calls\""
    printf "\n}\n"
}
