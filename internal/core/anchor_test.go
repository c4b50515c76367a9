package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/markov"
	"repro/internal/matrix"
	"repro/internal/phase"
	"repro/internal/qbd"
)

// TestVacationModelClosedForm anchors the entire pipeline against an
// independent closed form. A single class on one full-machine partition
// with an effectively infinite quantum is exactly the M/M/1 queue with
// multiple vacations (the paper's §1 connection to polling/vacation
// models): the server works until the queue empties, then takes repeated
// vacations (our context-switch overheads) until it finds work. The known
// decomposition result gives
//
//	N = ρ/(1−ρ) + λ·E[V²]/(2·E[V])
//
// which for exponential vacations of mean v is ρ/(1−ρ) + λ·v.
func TestVacationModelClosedForm(t *testing.T) {
	for _, tc := range []struct{ lambda, mu, v float64 }{
		{0.5, 1, 0.5},
		{0.7, 1, 1},
		{0.3, 2, 2},
		{0.9, 1, 0.2},
	} {
		m := &Model{
			Processors: 4,
			Classes: []ClassParams{{
				Partition: 4,
				Arrival:   phase.Exponential(tc.lambda),
				Service:   phase.Exponential(tc.mu),
				Quantum:   phase.Exponential(1e-7), // mean 1e7: never expires
				Overhead:  phase.Exponential(1 / tc.v),
			}},
		}
		res, err := Solve(m, SolveOptions{})
		if err != nil {
			t.Fatalf("λ=%g v=%g: %v", tc.lambda, tc.v, err)
		}
		rho := tc.lambda / tc.mu
		want := rho/(1-rho) + tc.lambda*tc.v
		got := res.Classes[0].N
		if math.Abs(got-want)/want > 0.01 {
			t.Fatalf("λ=%g μ=%g v=%g: N = %g, vacation closed form %g",
				tc.lambda, tc.mu, tc.v, got, want)
		}
	}
}

// TestVacationModelErlangVacations extends the anchor to non-exponential
// vacations: for Erlang-2 vacations of mean v, E[V²] = 1.5·v², so
// N = ρ/(1−ρ) + 0.75·λ·v.
func TestVacationModelErlangVacations(t *testing.T) {
	lambda, mu, v := 0.6, 1.0, 1.0
	m := &Model{
		Processors: 2,
		Classes: []ClassParams{{
			Partition: 2,
			Arrival:   phase.Exponential(lambda),
			Service:   phase.Exponential(mu),
			Quantum:   phase.Exponential(1e-7),
			Overhead:  phase.Erlang(2, 1/v),
		}},
	}
	res, err := Solve(m, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rho := lambda / mu
	want := rho/(1-rho) + lambda*0.75*v
	got := res.Classes[0].N
	if math.Abs(got-want)/want > 0.01 {
		t.Fatalf("N = %g, Erlang-vacation closed form %g", got, want)
	}
}

// randomModel draws a small random stable model for property tests.
func randomModel(rng *rand.Rand) *Model {
	sizes := [][]int{{1, 2}, {2, 4}, {1, 4}, {2, 2}}
	pair := sizes[rng.Intn(len(sizes))]
	procs := 4
	m := &Model{Processors: procs}
	for _, g := range pair {
		mu := 0.5 + rng.Float64()*2
		// Keep per-class utilization under ~0.25 so the pair stays well
		// inside the stability region despite switching losses.
		lam := (0.05 + rng.Float64()*0.2) * mu * float64(procs) / float64(g)
		m.Classes = append(m.Classes, ClassParams{
			Partition: g,
			Arrival:   phase.Exponential(lam),
			Service:   phase.Exponential(mu),
			Quantum:   phase.Exponential(1 / (0.3 + rng.Float64()*2)),
			Overhead:  phase.Exponential(1 / (0.005 + rng.Float64()*0.02)),
		})
	}
	return m
}

// TestPropertyRandomModelsSolveConsistently checks on random stable
// two-class models that the solution is a proper distribution, Little's
// law links N and T, and every effective quantum is physical.
func TestPropertyRandomModelsSolveConsistently(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomModel(rng)
		res, err := Solve(m, SolveOptions{})
		if err != nil {
			return false
		}
		for p, cr := range res.Classes {
			if !cr.Stable {
				return false
			}
			if mass := cr.Solution.TotalMass(); math.Abs(mass-1) > 1e-7 {
				return false
			}
			if math.Abs(cr.T-cr.N/m.ArrivalRate(p)) > 1e-9*(1+cr.T) {
				return false
			}
			eq := cr.Effective
			if eq.Atom < 0 || eq.Atom > 1 {
				return false
			}
			if eq.Mean() < 0 || eq.Mean() > m.Classes[p].Quantum.Mean()*(1+1e-6) {
				return false
			}
			if cr.SpectralRadiusR >= 1 || cr.SpectralRadiusR < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyExactEffectiveQuantumMomentsAgree verifies that the exact
// truncated PH representation of the effective quantum — (ξ, T), with T
// read back densely from the band the extraction factorizes — reports
// the same moments as the absorbing-chain computation it came from.
func TestPropertyExactEffectiveQuantumMomentsAgree(t *testing.T) {
	opts := SolveOptions{}.withDefaults()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomModel(rng)
		res, err := Solve(m, opts)
		if err != nil {
			return false
		}
		for _, cr := range res.Classes {
			eq := cr.Effective
			var sc quantumScratch
			alpha, _, err := cr.chain.absorbingChain(cr.Solution, opts.TailEps, opts.TruncationCap, &sc)
			if err != nil {
				return false
			}
			s := matrix.New(len(alpha), len(alpha))
			for i := range alpha {
				for j := range alpha {
					s.Set(i, j, -sc.band.At(i, j))
				}
			}
			exact := &phase.Dist{Alpha: alpha, S: s}
			// exact.Mean() is the conditional-on-start mean weighted by
			// the deficient initial vector — exactly Moments[0].
			if math.Abs(exact.Mean()-eq.Moments[0]) > 1e-8*(1+eq.Moments[0]) {
				return false
			}
			if math.Abs(exact.AtomAtZero()-eq.Atom) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyQBDMatchesBruteForce cross-checks the matrix-geometric
// solution of the per-class chain against a brute-force dense GTH solve of
// the same chain truncated deep in the tail — validating the QBD assembly,
// boundary solve, R matrix and eq. (37) in one shot, on random models with
// phase-type parameters.
func TestPropertyQBDMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		quanta := []*phase.Dist{
			phase.Exponential(1 / (0.3 + rng.Float64())),
			phase.Erlang(2, 1/(0.3+rng.Float64())),
		}
		services := []*phase.Dist{
			phase.Exponential(0.8 + rng.Float64()),
			phase.Erlang(2, 0.8+rng.Float64()),
		}
		m := &Model{
			Processors: 2,
			Classes: []ClassParams{{
				Partition: 1 + rng.Intn(2),
				Arrival:   phase.Exponential(0.1 + rng.Float64()*0.4),
				Service:   services[rng.Intn(2)],
				Quantum:   quanta[rng.Intn(2)],
				Overhead:  phase.Exponential(1 / (0.01 + rng.Float64()*0.05)),
			}},
		}
		f := HeavyTrafficIntervisit(m, 0)
		proc, sp, err := BuildClassProcess(m, 0, f)
		if err != nil {
			return false
		}
		sol, err := qbd.Solve(proc, qbd.RMatrixOptions{})
		if err != nil {
			return false
		}
		nGeo, err := sol.MeanLevel()
		if err != nil {
			return false
		}

		// Brute force: assemble the truncated dense generator from the
		// same emit stream and solve by GTH.
		const depth = 220
		offs := make([]int, depth+2)
		total := 0
		for lev := 0; lev <= depth; lev++ {
			offs[lev] = total
			total += sp.dim(lev)
		}
		offs[depth+1] = total
		q := matrix.New(total, total)
		for lev := 0; lev <= depth; lev++ {
			src := min(lev, sp.servers)
			for si, st := range sp.levels[src] {
				row := offs[lev] + si
				var out float64
				sp.emit(lev, st, func(destLevel int, dest classState, rate float64) {
					if rate == 0 || destLevel > depth {
						return
					}
					col := offs[destLevel] + sp.stateIndex(destLevel, dest)
					if col != row {
						q.Add(row, col, rate)
						out += rate
					}
				})
				q.Add(row, row, -out)
			}
		}
		pi, err := markov.StationaryGTH(q)
		if err != nil {
			return false
		}
		var nBF float64
		for lev := 0; lev <= depth; lev++ {
			for si := 0; si < sp.dim(lev); si++ {
				nBF += float64(lev) * pi[offs[lev]+si]
			}
		}
		return math.Abs(nGeo-nBF) <= 1e-5*(1+nBF)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestSymmetricClassesGetSymmetricResults: two identical classes must get
// identical steady-state measures.
func TestSymmetricClassesGetSymmetricResults(t *testing.T) {
	mk := func() ClassParams {
		return ClassParams{
			Partition: 2,
			Arrival:   phase.Exponential(0.5),
			Service:   phase.Exponential(1),
			Quantum:   phase.Exponential(1),
			Overhead:  phase.Exponential(100),
		}
	}
	m := &Model{Processors: 4, Classes: []ClassParams{mk(), mk()}}
	res, err := Solve(m, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Classes[0].N-res.Classes[1].N) > 1e-6 {
		t.Fatalf("symmetric classes diverge: %g vs %g", res.Classes[0].N, res.Classes[1].N)
	}
}

// TestMoreProcessorsNeverHurt: scaling the machine (more partitions per
// class at the same per-class load) cannot increase any class's
// population.
func TestMoreProcessorsNeverHurt(t *testing.T) {
	build := func(procs int) *Model {
		return &Model{
			Processors: procs,
			Classes: []ClassParams{{
				Partition: 1,
				Arrival:   phase.Exponential(1.2),
				Service:   phase.Exponential(1),
				Quantum:   phase.Exponential(1),
				Overhead:  phase.Exponential(100),
			}},
		}
	}
	prev := math.Inf(1)
	for _, procs := range []int{2, 4, 8} {
		res, err := Solve(build(procs), SolveOptions{})
		if err != nil {
			t.Fatalf("P=%d: %v", procs, err)
		}
		if res.Classes[0].N > prev+1e-9 {
			t.Fatalf("P=%d: N grew to %g from %g", procs, res.Classes[0].N, prev)
		}
		prev = res.Classes[0].N
	}
}
