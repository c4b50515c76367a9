// Command gangsweep runs a declarative parameter sweep — a JSON spec of
// a base scenario, parameter axes and solution methods — on the parallel
// sweep harness, with content-addressed result caching and reproducible
// run artifacts.
//
// Usage:
//
//	gangsweep -example > spec.json            # print a starter spec
//	gangsweep -spec spec.json                 # run it (all cores)
//	gangsweep -spec spec.json -parallel 4 -cache-dir .sweepcache -out run1
//	gangsweep -spec spec.json -cache-dir .sweepcache   # rerun: 100% cache hits
//	gangsweep -spec spec.json -resume=false -cache-dir .sweepcache  # ignore warm cache
//	gangsweep -spec spec.json -timeout 2m     # deadline; partial results kept
//
// With -cache-dir, trial results persist in <dir>/cache.v2.jsonl keyed
// by a content hash of each trial's resolved parameters, so repeated and
// interrupted sweeps only compute what is missing. The file name carries
// the answers' version: a cache.jsonl left by an older build, whose
// fixed point could stop short of a fixed point, is not read. Only
// converged answers are cached; a trial whose fixed point exhausts its
// budget fails with kind not-converged, and one with a class that cannot
// be solved fails with that class's typed kind. -out writes
// manifest.json (spec hash, per-trial status, cache hit rate, wall
// time), results.jsonl and results.csv; the result artifacts are
// byte-identical across runs regardless of -parallel or cache state.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/sweep"
)

const exampleSpec = `{
  "name": "quantum-sweep-rho-0.4",
  "base": {
    "processors": 8,
    "classes": [
      {"partition": 1, "lambda": 0.4, "mu": 0.5, "quantumMean": 1, "overheadMean": 0.01},
      {"partition": 2, "lambda": 0.4, "mu": 1,   "quantumMean": 1, "overheadMean": 0.01},
      {"partition": 4, "lambda": 0.4, "mu": 2,   "quantumMean": 1, "overheadMean": 0.01},
      {"partition": 8, "lambda": 0.4, "mu": 4,   "quantumMean": 1, "overheadMean": 0.01}
    ]
  },
  "axes": [
    {"param": "quantum", "values": [0.1, 0.25, 0.5, 0.75, 1, 1.5, 2, 3, 4, 5, 6]}
  ],
  "methods": ["analytic"],
  "seed": 1996
}
`

func main() {
	var (
		specPath = flag.String("spec", "", "JSON sweep spec (required unless -example)")
		parallel = flag.Int("parallel", 0, "worker pool size (0 = all cores)")
		cacheDir = flag.String("cache-dir", "", "directory for the persistent result cache (empty = memory only)")
		resume   = flag.Bool("resume", true, "reuse cached results from -cache-dir (false clears the cache and starts cold)")
		timeout  = flag.Duration("timeout", 0, "overall deadline (0 = none); completed trials are kept")
		outDir   = flag.String("out", "", "directory for run artifacts (manifest.json, results.jsonl, results.csv)")
		csvOut   = flag.Bool("csv", false, "print the results CSV to stdout")
		quiet    = flag.Bool("quiet", false, "suppress per-trial progress")
		example  = flag.Bool("example", false, "print an example spec and exit")
		solvePar = flag.Int("solve-parallel", 1, "per-class parallelism inside each analytic solve (<=1 = serial; the trial pool is the primary axis); results are bit-identical either way")
		newton   = flag.Bool("newton", false, "enable the Newton cyclic-reduction rung in the R-matrix ladder (pays off on large repeating blocks; certified, but results may differ from the classical reduction within tolerance, so they are never cached)")
	)
	flag.Parse()

	if *example {
		fmt.Print(exampleSpec)
		return
	}
	if *specPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	spec, err := sweep.LoadSpec(*specPath)
	fail(err)

	opts := sweep.Options{Workers: *parallel, SolveParallel: *solvePar, Newton: *newton}
	if *parallel > 1 && runtime.GOMAXPROCS(0) == 1 {
		fmt.Fprintf(os.Stderr, "gangsweep: warning: -parallel %d on GOMAXPROCS=1 — the pool serializes on one CPU and is pure overhead; expect slower than -parallel 1 (noted in the manifest)\n", *parallel)
	}
	if *cacheDir != "" {
		cache, err := sweep.OpenCache(*cacheDir)
		fail(err)
		defer cache.Close()
		if !*resume {
			// Cold start: discard the stored results; this run repopulates
			// the cache so the next -resume run is warm again.
			fail(cache.Reset())
			fmt.Fprintln(os.Stderr, "gangsweep: -resume=false: cache cleared, recomputing all trials")
		}
		opts.Cache = cache
	}

	trials, err := spec.Expand()
	fail(err)
	if !*quiet {
		every := len(trials) / 10
		if every == 0 {
			every = 1
		}
		opts.Progress = func(done, total int, r sweep.TrialResult) {
			if done%every == 0 || done == total || r.Status == sweep.StatusError || r.Status == sweep.StatusPanic {
				fmt.Fprintf(os.Stderr, "gangsweep: [%d/%d] trial %d %s %s (%s)\n",
					done, total, r.Index, r.Method, r.Status, r.Elapsed.Round(time.Millisecond))
			}
		}
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	run, runErr := sweep.Execute(ctx, spec, opts)
	if run == nil {
		fail(runErr)
	}

	fmt.Print(run.Summary())
	// Manifest.Pipeline aggregates the analytic pipeline's counters across
	// trials; it is omitted entirely when every trial came from cache.
	var solves int
	if run.Manifest.Pipeline != nil {
		solves = run.Manifest.Pipeline.Solves
	}
	fmt.Printf("  QBD solves this run: %d\n", solves)
	if *csvOut {
		fmt.Print(run.ResultsCSV())
	}
	if *outDir != "" {
		fail(run.WriteArtifacts(*outDir))
		fmt.Printf("  artifacts written to %s\n", *outDir)
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "gangsweep: run incomplete:", runErr)
		os.Exit(1)
	}
	if run.Manifest.Errors+run.Manifest.Panics > 0 {
		os.Exit(1)
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "gangsweep:", err)
		os.Exit(1)
	}
}
