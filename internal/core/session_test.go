package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/certify"
	"repro/internal/phase"
	"repro/internal/qbd"
)

// TestSessionColdMatchesSolve pins the session's core invariant: a
// Session resolving a sequence of models is bit-for-bit the one-shot
// Solve on each — the in-place refill reproduces a fresh build exactly,
// so not a single float may differ.
func TestSessionColdMatchesSolve(t *testing.T) {
	s, err := NewSession(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, lambda := range []float64{0.2, 0.35, 0.5, 0.65} {
		m := singleClassModel(8, 4, lambda, 1.0, 2.0, 0.05)
		got, err := s.Resolve(m)
		if err != nil {
			t.Fatalf("lambda=%g: session: %v", lambda, err)
		}
		want, err := Solve(m, SolveOptions{})
		if err != nil {
			t.Fatalf("lambda=%g: solve: %v", lambda, err)
		}
		if got.Classes[0].N != want.Classes[0].N || got.Classes[0].T != want.Classes[0].T {
			t.Fatalf("lambda=%g: cold session diverged: N %v vs %v, T %v vs %v",
				lambda, got.Classes[0].N, want.Classes[0].N, got.Classes[0].T, want.Classes[0].T)
		}
		if got.Iterations != want.Iterations {
			t.Fatalf("lambda=%g: iteration counts differ: %d vs %d",
				lambda, got.Iterations, want.Iterations)
		}
	}
}

// TestSessionStructuralDiff exercises the refill-vs-rebuild decision:
// rates-only changes refill the existing chain in place, a phase-order
// change rebuilds the class (and a rebuild count that keeps growing on
// identical structures would betray a broken signature).
func TestSessionStructuralDiff(t *testing.T) {
	s, err := NewSession(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m1 := singleClassModel(8, 4, 0.3, 1.0, 1.0, 0.02)
	if _, err := s.Resolve(m1); err != nil {
		t.Fatal(err)
	}
	after1 := s.Counters()
	if after1.Builds == 0 {
		t.Fatalf("first resolve built nothing: %+v", after1)
	}

	// Same structure, different rates: no new builds, only refills.
	m2 := singleClassModel(8, 4, 0.45, 1.0, 1.5, 0.03)
	if _, err := s.Resolve(m2); err != nil {
		t.Fatal(err)
	}
	after2 := s.Counters()
	if after2.Builds != after1.Builds {
		t.Fatalf("rates-only change rebuilt: builds %d -> %d", after1.Builds, after2.Builds)
	}
	if after2.Refills <= after1.Refills {
		t.Fatalf("rates-only change did not refill: %+v", after2)
	}

	// Erlang-2 service changes the phase order: the class must rebuild.
	m3 := singleClassModel(8, 4, 0.3, 1.0, 1.0, 0.02)
	m3.Classes[0].Service = phase.Erlang(2, 2.0)
	if _, err := s.Resolve(m3); err != nil {
		t.Fatal(err)
	}
	after3 := s.Counters()
	if after3.Builds <= after2.Builds {
		t.Fatalf("structural change did not rebuild: %+v", after3)
	}
}

// TestSessionEarlierResultsSurviveRefill: measures on a Result returned
// before a later Resolve must keep reading the solved chain, not the
// refilled generator entries.
func TestSessionEarlierResultsSurviveRefill(t *testing.T) {
	s, err := NewSession(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m1 := singleClassModel(8, 4, 0.3, 1.0, 1.0, 0.02)
	res1, err := s.Resolve(m1)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Solve(m1, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantDist := ref.Classes[0].QueueLengthDist(8)

	// Refill the session's chain with different rates, then read the old
	// Result's distribution.
	if _, err := s.Resolve(singleClassModel(8, 4, 0.55, 1.0, 2.0, 0.04)); err != nil {
		t.Fatal(err)
	}
	gotDist := res1.Classes[0].QueueLengthDist(8)
	for n := range wantDist {
		if gotDist[n] != wantDist[n] {
			t.Fatalf("P[N=%d] changed after refill: %v vs %v", n, gotDist[n], wantDist[n])
		}
	}
	if got, want := res1.Classes[0].TailProb(3), ref.Classes[0].TailProb(3); got != want {
		t.Fatalf("TailProb changed after refill: %v vs %v", got, want)
	}
}

// TestSessionHeavyTrafficMatches: the heavy-traffic path through a
// session equals the one-shot SolveHeavyTraffic.
func TestSessionHeavyTrafficMatches(t *testing.T) {
	s, err := NewSession(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := singleClassModel(8, 4, 0.5, 1.0, 1.0, 0.05)
	got, err := s.ResolveHeavyTraffic(m, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := SolveHeavyTraffic(m, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Classes[0].N != want.Classes[0].N {
		t.Fatalf("heavy-traffic N differs: %v vs %v", got.Classes[0].N, want.Classes[0].N)
	}
}

// TestSolveOptionsValidate: out-of-range options are typed ErrConfig
// failures from NewSession and Solve alike; in-range and zero values
// pass.
func TestSolveOptionsValidate(t *testing.T) {
	bad := []struct {
		name string
		opts SolveOptions
	}{
		{"negative FixedPointTol", SolveOptions{FixedPointTol: -1e-9}},
		{"NaN FixedPointTol", SolveOptions{FixedPointTol: math.NaN()}},
		{"negative TailEps", SolveOptions{TailEps: -1}},
		{"negative MaxIterations", SolveOptions{MaxIterations: -3}},
		{"negative TruncationCap", SolveOptions{TruncationCap: -1}},
		{"negative MaxFitOrder", SolveOptions{MaxFitOrder: -2}},
		{"negative RMatrix.Tol", SolveOptions{RMatrix: qbd.RMatrixOptions{Tol: -1e-12}}},
		{"negative RMatrix.MaxIter", SolveOptions{RMatrix: qbd.RMatrixOptions{MaxIter: -5}}},
	}
	m := singleClassModel(8, 4, 0.3, 1.0, 1.0, 0.02)
	for _, tc := range bad {
		if err := tc.opts.Validate(); !errors.Is(err, certify.ErrConfig) {
			t.Fatalf("%s: Validate = %v, want ErrConfig", tc.name, err)
		}
		if _, err := NewSession(tc.opts); !errors.Is(err, certify.ErrConfig) {
			t.Fatalf("%s: NewSession = %v, want ErrConfig", tc.name, err)
		}
		if _, err := Solve(m, tc.opts); !errors.Is(err, certify.ErrConfig) {
			t.Fatalf("%s: Solve = %v, want ErrConfig", tc.name, err)
		}
	}
	good := []SolveOptions{
		{},
		{FixedPointTol: 1e-8, MaxIterations: 50, TailEps: 1e-12},
	}
	for i, o := range good {
		if err := o.Validate(); err != nil {
			t.Fatalf("good[%d]: unexpected %v", i, err)
		}
	}
}

// TestCountersAdd: Add accumulates every field.
func TestCountersAdd(t *testing.T) {
	c := Counters{Builds: 1, Refills: 2, Solves: 3, RIterations: 4}
	c.Add(Counters{Builds: 10, Refills: 20, Solves: 30, RIterations: 40})
	want := Counters{Builds: 11, Refills: 22, Solves: 33, RIterations: 44}
	if c != want {
		t.Fatalf("Add: got %+v, want %+v", c, want)
	}
	c.Sub(Counters{Builds: 1, Refills: 2, Solves: 3, RIterations: 4})
	if want := (Counters{Builds: 10, Refills: 20, Solves: 30, RIterations: 40}); c != want {
		t.Fatalf("Sub: got %+v, want %+v", c, want)
	}
}

// TestSolveReportsCounters: the one-shot path carries per-run counters in
// the Result — the fixed point builds once per class and refills on each
// later iteration.
func TestSolveReportsCounters(t *testing.T) {
	res, err := Solve(singleClassModel(8, 4, 0.5, 1.0, 1.0, 0.05), SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Counters
	if c.Builds == 0 || c.Solves == 0 || c.RIterations == 0 {
		t.Fatalf("counters not populated: %+v", c)
	}
	if res.Iterations > 1 && c.Refills == 0 {
		t.Fatalf("multi-iteration solve with no refills: %+v", c)
	}
	if c.WarmSolves != 0 {
		t.Fatalf("one-shot solve used warm starts: %+v", c)
	}
}
