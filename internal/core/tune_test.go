package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/certify"
	"repro/internal/certify/faultinject"
	"repro/internal/phase"
)

func tuneModel(lambda float64) *Model {
	mu := []float64{0.5, 1, 2, 4}
	m := &Model{Processors: 8}
	for p := 0; p < 4; p++ {
		m.Classes = append(m.Classes, ClassParams{
			Partition: 1 << p,
			Arrival:   phase.Exponential(lambda),
			Service:   phase.Exponential(mu[p]),
			Quantum:   phase.Exponential(1),
			Overhead:  phase.Exponential(100),
		})
	}
	return m
}

func TestTuneQuantumFindsInteriorOptimum(t *testing.T) {
	m := tuneModel(0.6)
	tr, err := TuneQuantum(m, TuneOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Quantum <= 2*0.01 || tr.Quantum >= 10*2 {
		t.Fatalf("optimum %g at a bracket edge", tr.Quantum)
	}
	// The optimum must beat both a too-short and a too-long quantum.
	for _, q := range []float64{0.05, 6} {
		res, err := Solve(m.withQuantumMean(q), SolveOptions{})
		if err != nil {
			t.Fatalf("q=%g: %v", q, err)
		}
		if res.TotalN < tr.Objective-1e-6 {
			t.Fatalf("q=%g gives total N %g below 'optimum' %g at q=%g",
				q, res.TotalN, tr.Objective, tr.Quantum)
		}
	}
	if tr.Result == nil || tr.Evaluations < 5 {
		t.Fatalf("missing result or implausible evaluation count %d", tr.Evaluations)
	}
}

func TestTuneQuantumWeightsShiftOptimum(t *testing.T) {
	m := tuneModel(0.6)
	// Weighting only the long-service class favors longer quanta than
	// weighting only the short-service class (Figures 2–3: class 0's knee
	// sits far right of class 3's).
	long, err := TuneQuantum(m, TuneOptions{Weights: []float64{1, 0, 0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	short, err := TuneQuantum(m, TuneOptions{Weights: []float64{0, 0, 0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if long.Quantum <= short.Quantum {
		t.Fatalf("long-service optimum %g should exceed short-service optimum %g",
			long.Quantum, short.Quantum)
	}
}

func TestTuneQuantumRejectsBadInput(t *testing.T) {
	m := tuneModel(0.6)
	if _, err := TuneQuantum(m, TuneOptions{Weights: []float64{1}}); err == nil {
		t.Fatal("expected weight-count error")
	}
	if _, err := TuneQuantum(m, TuneOptions{Lo: 5, Hi: 1}); err == nil {
		t.Fatal("expected empty-bracket error")
	}
	if _, err := TuneQuantum(&Model{}, TuneOptions{}); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestTuneQuantumUnstableEverywhere(t *testing.T) {
	m := tuneModel(3) // far beyond capacity
	if _, err := TuneQuantum(m, TuneOptions{}); err != ErrNoStablePoint {
		t.Fatalf("err = %v, want ErrNoStablePoint", err)
	}
}

// TestTuneQuantumRefusesUnconverged: a fixed point out of budget is no
// objective to rank, so two rounds fail the search as not-converged
// instead of returning the optimum of unconverged numbers.
func TestTuneQuantumRefusesUnconverged(t *testing.T) {
	m := paperModel(0.4, [4]float64{0.5, 1, 2, 4}, 1, 0.01)
	tr, err := TuneQuantum(m, TuneOptions{Solve: SolveOptions{MaxIterations: 2}})
	if !errors.Is(err, certify.ErrNotConverged) {
		t.Fatalf("two-round search → %+v, error %v; want not-converged", tr, err)
	}
}

// TestTuneQuantumClassFaultFails: a class that cannot be solved is a
// failure, not instability — the search ends with the injected cause.
func TestTuneQuantumClassFaultFails(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	injected := errors.New("injected class failure")
	faultinject.Arm("core.class", func(any) error { return injected })
	if _, err := TuneQuantum(tuneModel(0.6), TuneOptions{}); !errors.Is(err, injected) {
		t.Fatalf("error %v, want the injected cause", err)
	}
}

func TestWithQuantumMeanPreservesShape(t *testing.T) {
	m := tuneModel(0.4)
	m.Classes[0].Quantum = phase.Erlang(3, 1)
	mm := m.withQuantumMean(2.5)
	if math.Abs(mm.Classes[0].Quantum.Mean()-2.5) > 1e-9 {
		t.Fatalf("mean = %g", mm.Classes[0].Quantum.Mean())
	}
	if math.Abs(mm.Classes[0].Quantum.SCV()-1.0/3) > 1e-9 {
		t.Fatalf("shape changed: SCV %g", mm.Classes[0].Quantum.SCV())
	}
	// Original untouched.
	if m.Classes[0].Quantum.Mean() != 1 {
		t.Fatal("withQuantumMean mutated the original model")
	}
}
