package gangsched

// One benchmark per paper artifact (Figures 1–5) regenerating the
// corresponding experiment, plus ablation and component benchmarks.
// Regenerated numbers are recorded in EXPERIMENTS.md; run with
//
//	go test -bench=. -benchmem
//
// The figure benchmarks execute the full analytic sweep per iteration, so
// a single iteration is the meaningful unit (wall time ≈ the cost of
// regenerating that figure).

import (
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/phase"
	"repro/internal/qbd"
	"repro/internal/sim"
)

func benchFigure(b *testing.B, run func(experiments.Options) (*experiments.Table, error)) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab, err := run(experiments.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFigure1StateSpace builds the Figure 1 state-transition diagram
// (per-class chain construction plus DOT rendering).
func BenchmarkFigure1StateSpace(b *testing.B) {
	m := core.Figure1Model(3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dot, err := core.StateDiagramDOT(m, 0, nil, 4)
		if err != nil {
			b.Fatal(err)
		}
		if len(dot) == 0 {
			b.Fatal("empty DOT")
		}
	}
}

// BenchmarkFigure2 regenerates Figure 2 (N_p vs quantum length, ρ = 0.4).
func BenchmarkFigure2(b *testing.B) { benchFigure(b, experiments.Figure2) }

// BenchmarkFigure3 regenerates Figure 3 (N_p vs quantum length, ρ = 0.9).
func BenchmarkFigure3(b *testing.B) { benchFigure(b, experiments.Figure3) }

// BenchmarkFigure4 regenerates Figure 4 (N_p vs service rate).
func BenchmarkFigure4(b *testing.B) { benchFigure(b, experiments.Figure4) }

// BenchmarkFigure5 regenerates Figure 5 (N_p vs cycle share).
func BenchmarkFigure5(b *testing.B) { benchFigure(b, experiments.Figure5) }

// BenchmarkAblationHeavyVsFixedPoint regenerates ablation A1.
func BenchmarkAblationHeavyVsFixedPoint(b *testing.B) {
	benchFigure(b, experiments.AblationHeavyVsFixedPoint)
}

// BenchmarkAblationFitOrder regenerates ablation A2.
func BenchmarkAblationFitOrder(b *testing.B) { benchFigure(b, experiments.AblationFitOrder) }

// BenchmarkAblationQuantumShape regenerates ablation A3.
func BenchmarkAblationQuantumShape(b *testing.B) { benchFigure(b, experiments.AblationQuantumShape) }

// BenchmarkAblationOverhead regenerates ablation A4.
func BenchmarkAblationOverhead(b *testing.B) { benchFigure(b, experiments.AblationOverhead) }

// BenchmarkDecompositionError regenerates ablation A7 (exact joint
// two-class solves via sparse Gauss-Seidel vs the decomposition).
func BenchmarkDecompositionError(b *testing.B) { benchFigure(b, experiments.DecompositionError) }

// BenchmarkTransientWarmup regenerates the transient-warmup extension
// table (uniformization over the truncated chain).
func BenchmarkTransientWarmup(b *testing.B) { benchFigure(b, experiments.TransientWarmup) }

// BenchmarkBatchSensitivity regenerates the batch-arrival extension table
// (super-level reblocked solves vs the M^[X]/M/1 closed form).
func BenchmarkBatchSensitivity(b *testing.B) { benchFigure(b, experiments.BatchSensitivity) }

// BenchmarkSolveSingleModel times one full Theorem 4.3 fixed-point solve
// of the paper's four-class model at ρ = 0.6, quantum 1.
func BenchmarkSolveSingleModel(b *testing.B) {
	m := experiments.PaperModel(
		[4]float64{0.6, 0.6, 0.6, 0.6}, experiments.PaperServiceRates,
		[4]float64{1, 1, 1, 1}, 0.01)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Solve(m, core.SolveOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveHeavyTraffic times the Theorem 4.1 initialization alone.
func BenchmarkSolveHeavyTraffic(b *testing.B) {
	m := experiments.PaperModel(
		[4]float64{0.6, 0.6, 0.6, 0.6}, experiments.PaperServiceRates,
		[4]float64{1, 1, 1, 1}, 0.01)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.SolveHeavyTraffic(m, core.SolveOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRMatrixLogReduction times the matrix-geometric kernel on the
// class-0 repeating blocks of the paper's model.
func BenchmarkRMatrixLogReduction(b *testing.B) {
	m := experiments.PaperModel(
		[4]float64{0.6, 0.6, 0.6, 0.6}, experiments.PaperServiceRates,
		[4]float64{1, 1, 1, 1}, 0.01)
	f := core.HeavyTrafficIntervisit(m, 0)
	proc, _, err := core.BuildClassProcess(m, 0, f)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := qbd.RMatrix(proc.A0, proc.A1, proc.A2, qbd.RMatrixOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGangSimulator measures simulator throughput: one 10k-time-unit
// run of the paper's model at ρ = 0.6.
func BenchmarkGangSimulator(b *testing.B) {
	m := experiments.PaperModel(
		[4]float64{0.6, 0.6, 0.6, 0.6}, experiments.PaperServiceRates,
		[4]float64{1, 1, 1, 1}, 0.01)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunGang(sim.Config{
			Model: m, Seed: int64(i + 1), Warmup: 1000, Horizon: 11000,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPHSampler measures phase-type variate generation.
func BenchmarkPHSampler(b *testing.B) {
	d := phase.Convolve(phase.Erlang(3, 1), phase.Exponential(2))
	s := phase.NewSampler(d)
	rng := newBenchRNG()
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += s.Sample(rng)
	}
	benchSink = sink
}

// BenchmarkPHConvolve measures Theorem 2.5 convolution of moderate-order
// representations (the heavy-traffic F_p construction cost).
func BenchmarkPHConvolve(b *testing.B) {
	ds := []*phase.Dist{
		phase.Erlang(4, 1), phase.Exponential(2), phase.Erlang(3, 0.5),
		phase.HyperExponential([]float64{0.5, 0.5}, []float64{1, 4}),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if phase.ConvolveAll(ds...).Order() != 10 {
			b.Fatal("bad order")
		}
	}
}

var benchSink float64
