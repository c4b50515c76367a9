package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/phase"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// singleClassModel builds a one-class gang model; with negligible overhead
// and very long quanta it approaches an M/M/C queue on C = P/g partitions.
func singleClassModel(p, g int, lambda, mu, quantum, overhead float64) *Model {
	return &Model{
		Processors: p,
		Classes: []ClassParams{{
			Partition: g,
			Arrival:   phase.Exponential(lambda),
			Service:   phase.Exponential(mu),
			Quantum:   phase.Exponential(1 / quantum),
			Overhead:  phase.Exponential(1 / overhead),
		}},
	}
}

func erlangCMeanJobs(lambda, mu float64, c int) float64 {
	a := lambda / mu
	rho := a / float64(c)
	var sum float64
	fact := 1.0
	for k := 0; k < c; k++ {
		if k > 0 {
			fact *= float64(k)
		}
		sum += math.Pow(a, float64(k)) / fact
	}
	factC := fact * float64(c)
	if c == 1 {
		factC = 1
	}
	last := math.Pow(a, float64(c)) / (factC * (1 - rho))
	p0 := 1 / (sum + last)
	return last*p0*rho/(1-rho) + a
}

func TestSingleClassApproachesMMC(t *testing.T) {
	// One class owning the machine with quanta ≫ service times and tiny
	// overheads: N should be within a few percent of Erlang-C.
	for _, c := range []int{1, 2, 4} {
		m := singleClassModel(8, 8/c, 0.6*float64(c), 1.0, 5000, 1e-4)
		res, err := Solve(m, SolveOptions{})
		if err != nil {
			t.Fatalf("c=%d: %v", c, err)
		}
		want := erlangCMeanJobs(0.6*float64(c), 1.0, c)
		got := res.Classes[0].N
		if math.Abs(got-want)/want > 0.03 {
			t.Fatalf("c=%d: N = %g, Erlang-C %g", c, got, want)
		}
	}
}

func TestLittlesLaw(t *testing.T) {
	m := singleClassModel(4, 2, 0.8, 1.0, 3, 0.01)
	res, err := Solve(m, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cr := res.Classes[0]
	if !almostEq(cr.T, cr.N/0.8, 1e-9) {
		t.Fatalf("Little violated: T=%g, N/λ=%g", cr.T, cr.N/0.8)
	}
}

func TestUnstableClassReported(t *testing.T) {
	// λ far above capacity.
	m := singleClassModel(2, 2, 5, 1.0, 1, 0.01)
	res, err := Solve(m, SolveOptions{})
	if err != ErrAllUnstable {
		t.Fatalf("err = %v, want ErrAllUnstable", err)
	}
	if res.Classes[0].Stable {
		t.Fatal("overloaded class marked stable")
	}
}

func TestPaperConfigSmoke(t *testing.T) {
	// The paper's 8-processor, 4-class configuration at ρ = 0.4 with
	// mean quantum 2. All classes stable, fixed point converges.
	m := paperModel(0.4, [4]float64{0.5, 1, 2, 4}, 2, 0.01)
	res, err := Solve(m, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("fixed point did not converge in %d iterations", res.Iterations)
	}
	if !almostEq(m.Utilization(), 0.4, 1e-9) {
		t.Fatalf("utilization = %g, want 0.4", m.Utilization())
	}
	for p, cr := range res.Classes {
		if !cr.Stable {
			t.Fatalf("class %d unstable at rho=0.4", p)
		}
		if cr.N <= 0 || cr.N > 50 {
			t.Fatalf("class %d N = %g out of plausible range", p, cr.N)
		}
		t.Logf("class %d: N=%.4f T=%.4f atom=%.3f effMean=%.3f sp(R)=%.3f",
			p, cr.N, cr.T, cr.Effective.Atom, cr.Effective.Mean(), cr.SpectralRadiusR)
	}
}

// paperModel builds the §5 experimental configuration: P=8, four classes,
// class p on partitions of g(p)=2^p (so 2^{3−p} partitions), exponential
// interarrivals/service/quanta/overheads.
func paperModel(lambda float64, mu [4]float64, quantumMean, overheadMean float64) *Model {
	m := &Model{Processors: 8}
	for p := 0; p < 4; p++ {
		m.Classes = append(m.Classes, ClassParams{
			Partition: 1 << p,
			Arrival:   phase.Exponential(lambda),
			Service:   phase.Exponential(mu[p]),
			Quantum:   phase.Exponential(1 / quantumMean),
			Overhead:  phase.Exponential(1 / overheadMean),
		})
	}
	return m
}

func TestHeavyTrafficIntervisitStructure(t *testing.T) {
	m := paperModel(0.4, [4]float64{0.5, 1, 2, 4}, 2, 0.01)
	f := HeavyTrafficIntervisit(m, 1)
	// Own overhead + 3 × (quantum + overhead), all exponential: order 7.
	if f.Order() != 7 {
		t.Fatalf("order = %d, want 7", f.Order())
	}
	want := 0.01 + 3*(2+0.01)
	if !almostEq(f.Mean(), want, 1e-9) {
		t.Fatalf("mean = %g, want %g", f.Mean(), want)
	}
}

func TestBuildClassProcessValidates(t *testing.T) {
	m := paperModel(0.4, [4]float64{0.5, 1, 2, 4}, 2, 0.01)
	f := HeavyTrafficIntervisit(m, 0)
	proc, sp, err := BuildClassProcess(m, 0, f)
	if err != nil {
		t.Fatal(err)
	}
	if proc.Boundary() != 8 {
		t.Fatalf("boundary = %d, want 8 (class 0 has 8 partitions)", proc.Boundary())
	}
	// Repeating dim: mA=1, comp=1, MG+NF = 1+7 = 8.
	if proc.RepeatDim() != 8 {
		t.Fatalf("repeat dim = %d, want 8", proc.RepeatDim())
	}
	if sp.dim(0) != 7 { // level 0: only intervisit phases
		t.Fatalf("level-0 dim = %d, want 7", sp.dim(0))
	}
	if err := proc.Validate(1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestSolveOptionsDefaults(t *testing.T) {
	o := SolveOptions{}.withDefaults()
	if o.FixedPointTol != 1e-6 || o.MaxIterations != 200 ||
		o.MaxFitOrder != 8 || o.TailEps != 1e-10 || o.TruncationCap != 400 {
		t.Fatalf("unexpected defaults: %+v", o)
	}
}

func TestHeavyTrafficVsFixedPointDiffer(t *testing.T) {
	// Ablation A1: at moderate load the fixed point should move N away
	// from the heavy-traffic initialization (shorter effective quanta).
	m := paperModel(0.4, [4]float64{0.5, 1, 2, 4}, 2, 0.01)
	ht, err := SolveHeavyTraffic(m, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fp, err := Solve(m, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var moved bool
	for p := range fp.Classes {
		if math.Abs(fp.Classes[p].N-ht.Classes[p].N) > 1e-3 {
			moved = true
		}
		// Fixed point should reduce waiting: intervisits shrink.
		if fp.Classes[p].N > ht.Classes[p].N+1e-9 {
			t.Fatalf("class %d: fixed point N %g above heavy-traffic N %g",
				p, fp.Classes[p].N, ht.Classes[p].N)
		}
	}
	if !moved {
		t.Fatal("fixed point identical to heavy traffic at rho=0.4")
	}
}

func TestEffectiveQuantumLoadMonotonicity(t *testing.T) {
	// Theorem 4.3 intuition: as load grows, a class exhausts more of its
	// quantum — the conditional (positive-part) effective quantum mean
	// rises toward the nominal mean, and the fraction of skipped slices
	// falls. (The per-cycle atom itself stays sizable whenever the
	// overhead is tiny relative to the quantum, because an idle system
	// recycles its timeplexing cycle every overhead period.)
	condMean := func(lambda float64) (float64, float64) {
		m := singleClassModel(2, 1, lambda, 1.0, 1, 0.01)
		res, err := Solve(m, SolveOptions{})
		if err != nil {
			t.Fatalf("lambda=%g: %v", lambda, err)
		}
		eq := res.Classes[0].Effective
		return eq.ConditionalMean(), eq.Atom
	}
	loMean, loAtom := condMean(0.3)  // rho = 0.15
	hiMean, hiAtom := condMean(1.85) // rho = 0.925
	if hiMean <= loMean {
		t.Fatalf("conditional mean not increasing with load: %g (light) vs %g (heavy)", loMean, hiMean)
	}
	if hiAtom >= loAtom {
		t.Fatalf("atom not decreasing with load: %g (light) vs %g (heavy)", loAtom, hiAtom)
	}
	if hiMean < 0.75 || hiMean > 1.0+1e-9 {
		t.Fatalf("heavy-load conditional mean = %g, want near nominal 1", hiMean)
	}
}

func TestValidateModelErrors(t *testing.T) {
	base := singleClassModel(4, 2, 1, 2, 1, 0.01)
	cases := []func(*Model){
		func(m *Model) { m.Processors = 0 },
		func(m *Model) { m.Classes = nil },
		func(m *Model) { m.Classes[0].Partition = 3 }, // doesn't divide 4
		func(m *Model) { m.Classes[0].Partition = 5 }, // > P
		func(m *Model) { m.Classes[0].Arrival = nil },
		func(m *Model) { m.Classes[0].Quantum = nil },
	}
	for i, mut := range cases {
		m := singleClassModel(4, 2, 1, 2, 1, 0.01)
		_ = base
		mut(m)
		if err := m.Validate(); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
}

func TestQBDSolutionMassCheck(t *testing.T) {
	m := paperModel(0.4, [4]float64{0.5, 1, 2, 4}, 1, 0.01)
	res, err := Solve(m, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for p, cr := range res.Classes {
		if tm := cr.Solution.TotalMass(); !almostEq(tm, 1, 1e-8) {
			t.Fatalf("class %d total mass %g", p, tm)
		}
	}
}

func TestRhoAndShares(t *testing.T) {
	m := paperModel(0.4, [4]float64{0.5, 1, 2, 4}, 2, 0.01)
	for p := 0; p < 4; p++ {
		if !almostEq(m.ClassUtilization(p), 0.1, 1e-12) {
			t.Fatalf("class %d rho = %g, want 0.1", p, m.ClassUtilization(p))
		}
		if !almostEq(m.QuantumShare(p), 2.0/(4*2.01), 1e-12) {
			t.Fatalf("class %d share = %g", p, m.QuantumShare(p))
		}
	}
	if !almostEq(m.MeanCycleNominal(), 4*2.01, 1e-12) {
		t.Fatalf("cycle = %g", m.MeanCycleNominal())
	}
}

func TestErlangQuantumModelSolves(t *testing.T) {
	// Figure 1's flavor: Erlang quantum, exponential everything else.
	m := &Model{
		Processors: 3,
		Classes: []ClassParams{
			{Partition: 1, Arrival: phase.Exponential(0.5), Service: phase.Exponential(1),
				Quantum: phase.Erlang(3, 1), Overhead: phase.Exponential(100)},
			{Partition: 3, Arrival: phase.Exponential(0.3), Service: phase.Exponential(2),
				Quantum: phase.Erlang(2, 1), Overhead: phase.Exponential(100)},
		},
	}
	res, err := Solve(m, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for p, cr := range res.Classes {
		if !cr.Stable || cr.N <= 0 {
			t.Fatalf("class %d: stable=%v N=%g", p, cr.Stable, cr.N)
		}
	}
}

func TestPhaseTypeServiceModelSolves(t *testing.T) {
	// Non-exponential service exercises the occupancy-vector machinery.
	m := &Model{
		Processors: 4,
		Classes: []ClassParams{
			{Partition: 2, Arrival: phase.Exponential(0.5), Service: phase.Erlang(2, 1),
				Quantum: phase.Exponential(0.5), Overhead: phase.Exponential(100)},
			{Partition: 4, Arrival: phase.Exponential(0.4),
				Service: phase.HyperExponential([]float64{0.5, 0.5}, []float64{1, 4}),
				Quantum: phase.Exponential(0.5), Overhead: phase.Exponential(100)},
		},
	}
	res, err := Solve(m, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for p, cr := range res.Classes {
		if !cr.Stable || cr.N <= 0 {
			t.Fatalf("class %d: stable=%v N=%g", p, cr.Stable, cr.N)
		}
	}
	// Class 0 has 2 servers and 2 service phases: level-2 space has
	// comp(2,2)=3 occupancy vectors × (1+NF) cycle phases.
	if res.Classes[0].chain.space.dim(2) != 3*(1+res.Classes[0].Intervisit.Order()) {
		t.Fatalf("unexpected level-2 dim %d", res.Classes[0].chain.space.dim(2))
	}
}

func TestCompositions(t *testing.T) {
	cs := compositions(3, 2)
	if len(cs) != 4 {
		t.Fatalf("compositions(3,2) = %v, want 4 entries", cs)
	}
	cs2 := compositions(2, 3)
	if len(cs2) != 6 { // C(2+2,2) = 6
		t.Fatalf("compositions(2,3): %d entries, want 6", len(cs2))
	}
	for _, v := range cs2 {
		s := 0
		for _, x := range v {
			s += x
		}
		if s != 2 {
			t.Fatalf("composition %v does not sum to 2", v)
		}
	}
	if got := compositions(0, 0); len(got) != 1 || len(got[0]) != 0 {
		t.Fatalf("compositions(0,0) = %v", got)
	}
	if got := compositions(1, 0); got != nil {
		t.Fatalf("compositions(1,0) = %v, want nil", got)
	}
}

func TestDriftMatchesUtilizationBoundary(t *testing.T) {
	// For a single class with huge quanta and tiny overhead, the drift
	// boundary should sit at rho ≈ 1.
	stable := singleClassModel(4, 1, 3.8, 1.0, 10000, 1e-5) // rho=0.95
	un := singleClassModel(4, 1, 4.2, 1.0, 10000, 1e-5)     // rho=1.05
	f := HeavyTrafficIntervisit(stable, 0)
	proc, _, err := BuildClassProcess(stable, 0, f)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := proc.Stable()
	if err != nil || !ok {
		t.Fatalf("rho=0.95 should be stable: %v %v", ok, err)
	}
	f2 := HeavyTrafficIntervisit(un, 0)
	proc2, _, err := BuildClassProcess(un, 0, f2)
	if err != nil {
		t.Fatal(err)
	}
	ok2, err := proc2.Stable()
	if err != nil {
		t.Fatal(err)
	}
	if ok2 {
		t.Fatal("rho=1.05 should be unstable")
	}
}

// TestPropertyFixedPointFromUnstableStart draws seeded random two-class
// models in which one class is unstable under the Theorem 4.1
// heavy-traffic start. That class keeps its nominal quantum after round
// 1, so the other class's round-2 input repeats round 1: the pattern in
// which an iteration that tests only N can stop where nothing is fixed.
// Every solve must converge with its residual below the tolerance, and
// agree with a solve run to a tolerance four decades tighter.
func TestPropertyFixedPointFromUnstableStart(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	found := 0
	for draw := 0; draw < 400 && found < 12; draw++ {
		m := &Model{Processors: 4}
		for _, g := range [][]int{{2, 4}, {1, 4}, {2, 2}, {4, 4}}[rng.Intn(4)] {
			mu := 0.5 + rng.Float64()*2
			lam := (0.1 + rng.Float64()*0.5) * mu * float64(m.Processors) / float64(g)
			m.Classes = append(m.Classes, ClassParams{
				Partition: g,
				Arrival:   phase.Exponential(lam),
				Service:   phase.Exponential(mu),
				Quantum:   phase.Exponential(1 / (0.25 + rng.Float64()*2)),
				Overhead:  phase.Exponential(1 / (0.01 + rng.Float64()*0.04)),
			})
		}
		ht, err := SolveHeavyTraffic(m, SolveOptions{Parallel: 1})
		if err != nil || ht.Classes[0].Stable == ht.Classes[1].Stable {
			continue // want exactly one class unstable at the start
		}
		res, err := Solve(m, SolveOptions{Parallel: 1})
		if err != nil {
			continue // all unstable: nothing to iterate
		}
		found++
		if !res.Converged || !(res.FixedPointResidual < 1e-6) {
			t.Fatalf("draw %d: converged %v after %d rounds, residual %g",
				draw, res.Converged, res.Iterations, res.FixedPointResidual)
		}
		tight, err := Solve(m, SolveOptions{Parallel: 1, FixedPointTol: 1e-10, MaxIterations: 5000})
		if err != nil || !tight.Converged {
			t.Fatalf("draw %d: tight solve: %v (converged %v)", draw, err, tight != nil && tight.Converged)
		}
		if d := math.Abs(res.TotalN-tight.TotalN) / tight.TotalN; d > 1e-4 {
			t.Fatalf("draw %d: total N %v after %d rounds, fixed point %v (relative gap %.2g)",
				draw, res.TotalN, res.Iterations, tight.TotalN, d)
		}
	}
	if found < 12 {
		t.Fatalf("only %d of 400 draws start with exactly one unstable class", found)
	}
}
