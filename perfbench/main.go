// Command perfbench is the repository benchmark. It drives the solver
// stack through one workload for a fixed measured window and prints one
// JSON result line. The workloads:
//
//	cold-sweep       analytic sweep grids through internal/sweep on one
//	                 worker with no cache: every trial is a cold Theorem 4.3
//	                 fixed-point solve (closed loop).
//	gangserved-open  open-loop paced traffic against the gangserved engine
//	                 over loopback HTTP: a warm shard, memo hits, coalescing.
//	large-block      certified QBD solves of Kronecker-structured repeating
//	                 blocks of order 96 to 224, some through the default
//	                 ladder and some through the Newton rung (closed loop).
//
// Inputs are generated from --seed only. With --trace 0 the run reports
// the end-to-end metrics; with --trace 1 the same workload runs under a
// CPU profile and reports per-layer metrics instead. Build and run it
// through perfbench/run.py from the repository root:
//
//	python3 perfbench/run.py --workload cold-sweep --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"syscall"
	"time"
)

// A run repeats its set-up at least setupMinRounds times and until
// setupMinTime has passed (at most setupMaxRounds times); setup_s is the
// median round. A cheap set-up takes more rounds, so the median spans a
// similar stretch of wall time on every workload and a slow round or a
// short slow spell of the host (page faults, a scheduler hiccup) cannot
// move the metric.
const (
	setupMinRounds = 9
	setupMaxRounds = 51
	setupMinTime   = 2 * time.Second
)

// workload is one benchmark traffic shape. setup builds everything the
// measured window needs (it is called once per set-up round, each time
// after close), run issues operations until the deadline and records
// them into rep, verify checks the outputs afterwards, close releases
// whatever setup started.
type workload interface {
	setup() error
	run(deadline time.Time, rep *report) error
	verify() error
	close()
}

// report collects what a workload observed in the measured window.
type report struct {
	// latencies holds one entry per completed operation: milliseconds
	// from when the operation was due to when its answer was in hand.
	latencies []float64
	// late holds, per operation, how many milliseconds after its due time
	// it was actually issued (the generator's own lag).
	late      []float64
	attempted int
	failed    int
	layers    layerCounts
}

// layerCounts are per-layer work counts summed over the window, read
// from the program's own outputs (solver counters, certificates,
// response flags).
type layerCounts struct {
	solves, rIters, builds, refills, fpRounds float64
	cacheHits, warmSolves, warmAccepted       float64
	newtonTried, newtonAccepted               float64
	// handlerMs sums the server-side handler span of each request; only
	// the serving workload has one.
	handlerMs float64
}

func (r *report) op(due, issued, done time.Time) {
	r.latencies = append(r.latencies, msSince(due, done))
	r.late = append(r.late, msSince(due, issued))
}

func msSince(from, to time.Time) float64 { return float64(to.Sub(from)) / 1e6 }

var workloads = map[string]func(rng *rand.Rand) workload{
	"cold-sweep":      newColdSweep,
	"gangserved-open": newServeOpen,
	"large-block":     newLargeBlock,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run (cold-sweep, gangserved-open, large-block)")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics under a CPU profile")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	res, err := runWorkload(mk(rand.New(rand.NewSource(*seed))), time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func runWorkload(wl workload, window time.Duration, trace bool) (*result, error) {
	defer wl.close()
	var setups []float64
	begin := time.Now()
	for i := 0; i < setupMaxRounds && (i < setupMinRounds || time.Since(begin) < setupMinTime); i++ {
		wl.close()   // tear down the previous round outside the timed span
		runtime.GC() // each round starts from the same collected heap
		start := time.Now()
		if err := wl.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	runtime.GC()

	var prof *cpuProfile
	if trace {
		var err error
		if prof, err = startCPUProfile(); err != nil {
			return nil, err
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	rep := &report{}
	runErr := wl.run(time.Now().Add(window), rep)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	var shares *cpuShares
	if prof != nil {
		var err error
		if shares, err = prof.stop(); err != nil {
			return nil, err
		}
	}
	if runErr != nil {
		return nil, runErr
	}
	if len(rep.latencies) == 0 {
		return nil, fmt.Errorf("no operation completed in the window")
	}
	verifyErr := wl.verify()
	if verifyErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: verification failed:", verifyErr)
	}

	ops := float64(len(rep.latencies))
	res := &result{
		Correct:   verifyErr == nil && rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metric{},
	}
	set := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	if !trace {
		set("latency_ms", "ms", median(rep.latencies))
		set("alloc_kb_per_op", "KiB", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/ops)
		set("setup_s", "s", median(setups))
		return res, nil
	}

	lc := rep.layers
	cpuMs := cpu.Seconds() * 1e3 / ops
	set("cpu_ms_per_op", "ms", cpuMs)
	set("matrix_cpu_ms_per_op", "ms", shares.layer["matrix"]*cpuMs)
	set("ladder_cpu_ms_per_op", "ms", shares.stage["ladder"]*cpuMs)
	set("boundary_cpu_ms_per_op", "ms", shares.stage["boundary"]*cpuMs)
	for _, l := range []string{"qbd", "core", "phase", "markov", "sweep", "serve", "http", "gc", "bench", "other"} {
		set(l+"_cpu_pct", "%", 100*shares.layer[l])
	}
	set("gen_late_ms_max", "ms", quantile(rep.late, 1))
	set("server_share_pct", "%", 100*ratio(lc.handlerMs, sum(rep.latencies)))
	set("qbd_solves_per_op", "count", lc.solves/ops)
	set("r_iters_per_solve", "count", ratio(lc.rIters, lc.solves))
	set("class_builds_per_op", "count", lc.builds/ops)
	set("class_refills_per_op", "count", lc.refills/ops)
	set("fp_rounds_per_op", "count", lc.fpRounds/ops)
	set("cache_hit_ratio", "ratio", lc.cacheHits/ops)
	set("warm_accept_ratio", "ratio", ratio(lc.warmAccepted, lc.warmSolves))
	set("newton_accept_ratio", "ratio", ratio(lc.newtonAccepted, lc.newtonTried))
	return res, nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
