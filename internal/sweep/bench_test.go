package sweep

// Sweep-throughput benchmarks: the same 64-trial analytic grid executed
// serially, on the full worker pool, and against a warm cache. The
// committed baseline lives in BENCH_sweep.json (regenerate with
// `make bench-sweep`); the parallel/serial ratio tracks the machine's
// core count, and the warm-cache path measures pure orchestration
// overhead (zero solver calls).

import (
	"context"
	"runtime"
	"testing"
)

// benchSpec is a 64-trial grid (8 lambdas × 4 quanta × 2 overheads) over
// a two-class machine — big enough to amortize pool startup, small
// enough per-trial to keep iterations meaningful.
func benchSpec() *Spec {
	return &Spec{
		Name: "bench",
		Base: Scenario{Processors: 4, Classes: []ClassSpec{
			{Partition: 2, Lambda: 0.5, Mu: 1, QuantumMean: 1, OverheadMean: 0.01},
			{Partition: 4, Lambda: 0.25, Mu: 1, QuantumMean: 1, OverheadMean: 0.01},
		}},
		Axes: []Axis{
			{Param: "lambda", Values: []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}},
			{Param: "quantum", Values: []float64{0.25, 0.5, 1, 2}},
			{Param: "overhead", Values: []float64{0.01, 0.05}},
		},
		Methods: []Method{MethodAnalytic},
	}
}

func benchRun(b *testing.B, workers int, cache *Cache) {
	b.Helper()
	s := benchSpec()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run, err := Execute(context.Background(), s, Options{Workers: workers, Cache: cache})
		if err != nil {
			b.Fatal(err)
		}
		if run.Manifest.Errors+run.Manifest.Panics > 0 {
			b.Fatalf("bench grid failed: %+v", run.Manifest)
		}
	}
	b.ReportMetric(64*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
}

// BenchmarkSweepSerial is the single-worker baseline.
func BenchmarkSweepSerial(b *testing.B) { benchRun(b, 1, nil) }

// BenchmarkSweepParallel sizes the pool to GOMAXPROCS — not NumCPU — so
// a `-cpu 1,2,4,8` scaling run (make bench-scale) measures the pool at
// each width instead of oversubscribing every row with NumCPU workers.
func BenchmarkSweepParallel(b *testing.B) { benchRun(b, runtime.GOMAXPROCS(0), nil) }

// BenchmarkSweepWarmCache measures the cache-hit fast path: after one
// priming run every trial is served from memory with no solver calls.
func BenchmarkSweepWarmCache(b *testing.B) {
	cache := NewMemCache()
	if _, err := Execute(context.Background(), benchSpec(), Options{Workers: runtime.GOMAXPROCS(0), Cache: cache}); err != nil {
		b.Fatal(err)
	}
	benchRun(b, runtime.GOMAXPROCS(0), cache)
}
