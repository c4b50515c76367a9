// Command gangsolve analytically solves a single gang-scheduling model —
// the paper's §5 machine shape with user-supplied rates — and prints the
// per-class steady-state measures.
//
// Usage:
//
//	gangsolve -P 8 -classes "g=1,lam=0.4,mu=0.5,q=2;g=2,lam=0.4,mu=1,q=2" -overhead 0.01
//	gangsolve -heavy            # Theorem 4.1 initialization only
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/phase"
)

func main() {
	var (
		procs    = flag.Int("P", 8, "number of processors")
		classes  = flag.String("classes", "g=1,lam=0.4,mu=0.5,q=2;g=2,lam=0.4,mu=1,q=2;g=4,lam=0.4,mu=2,q=2;g=8,lam=0.4,mu=4,q=2", "semicolon-separated class specs: g=<partition>,lam=<epoch rate>,mu=<rate>,q=<mean quantum>[,b=<constant batch size>]")
		overhead = flag.Float64("overhead", 0.01, "mean context-switch overhead")
		heavy    = flag.Bool("heavy", false, "heavy-traffic solution only (no fixed point)")
		parallel = flag.Int("parallel", 0, "per-class solve parallelism: 0 = GOMAXPROCS, 1 = serial; any value gives bit-identical results")
	)
	flag.Parse()

	m := &core.Model{Processors: *procs}
	for _, spec := range strings.Split(*classes, ";") {
		cp, err := parseClass(spec, *overhead)
		if err != nil {
			fail(err)
		}
		m.Classes = append(m.Classes, cp)
	}

	solve := core.Solve
	if *heavy {
		solve = core.SolveHeavyTraffic
	}
	res, err := solve(m, core.SolveOptions{Parallel: *parallel})
	if err != nil && err != core.ErrAllUnstable {
		fail(err)
	}
	fmt.Printf("utilization rho = %.4f, fixed-point iterations = %d (converged=%v, residual=%.3g)\n",
		m.Utilization(), res.Iterations, res.Converged, res.FixedPointResidual)
	fmt.Printf("%-6s %-8s %-10s %-10s %-10s %-10s %-10s\n",
		"class", "stable", "N", "T", "rho_p", "sp(R)", "effQ.mean")
	for p, cr := range res.Classes {
		if !cr.Stable {
			fmt.Printf("%-6d %-8v %-10s %-10s %-10.4f\n", p, false, "-", "-", cr.Rho)
			continue
		}
		fmt.Printf("%-6d %-8v %-10.4f %-10.4f %-10.4f %-10.4f %-10.4f\n",
			p, true, cr.N, cr.T, cr.Rho, cr.SpectralRadiusR, cr.Effective.Mean())
	}
	fmt.Printf("total N = %.4f, mean timeplexing cycle = %.4f\n", res.TotalN, res.MeanCycle)
}

func parseClass(spec string, overhead float64) (core.ClassParams, error) {
	cp := core.ClassParams{Overhead: phase.Exponential(1 / overhead)}
	var lam, mu, q float64
	batch := 1
	for _, kv := range strings.Split(spec, ",") {
		parts := strings.SplitN(strings.TrimSpace(kv), "=", 2)
		if len(parts) != 2 {
			return cp, fmt.Errorf("bad key=value %q", kv)
		}
		v, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return cp, fmt.Errorf("bad value in %q: %v", kv, err)
		}
		switch parts[0] {
		case "g":
			cp.Partition = int(v)
		case "lam":
			lam = v
		case "mu":
			mu = v
		case "q":
			q = v
		case "b":
			batch = int(v)
		default:
			return cp, fmt.Errorf("unknown key %q", parts[0])
		}
	}
	if lam <= 0 || mu <= 0 || q <= 0 || cp.Partition < 1 {
		return cp, fmt.Errorf("spec %q needs positive g, lam, mu, q", spec)
	}
	cp.Arrival = phase.Exponential(lam)
	cp.Service = phase.Exponential(mu)
	cp.Quantum = phase.Exponential(1 / q)
	if batch > 1 {
		// Constant batches of the given size; lam remains the epoch rate.
		probs := make([]float64, batch)
		probs[batch-1] = 1
		cp.Batch = probs
	}
	return cp, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "gangsolve:", err)
	os.Exit(1)
}
