package qbd

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/markov"
	"repro/internal/matrix"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// mm1 builds the M/M/1 queue as a trivial QBD with one phase.
func mm1(lambda, mu float64) *Process {
	one := func(v float64) *matrix.Dense {
		m := matrix.New(1, 1)
		m.Set(0, 0, v)
		return m
	}
	return &Process{
		Local: []*matrix.Dense{one(-lambda)},
		Up:    []*matrix.Dense{one(lambda)},
		Down:  []*matrix.Dense{nil, one(mu)},
		A0:    one(lambda),
		A1:    one(-(lambda + mu)),
		A2:    one(mu),
	}
}

// mmc builds the M/M/c queue as a QBD with c boundary levels.
func mmc(lambda, mu float64, c int) *Process {
	one := func(v float64) *matrix.Dense {
		m := matrix.New(1, 1)
		m.Set(0, 0, v)
		return m
	}
	p := &Process{
		A0: one(lambda),
		A1: one(-(lambda + float64(c)*mu)),
		A2: one(float64(c) * mu),
	}
	p.Down = append(p.Down, nil)
	for i := 0; i < c; i++ {
		p.Local = append(p.Local, one(-(lambda + float64(i)*mu)))
		p.Up = append(p.Up, one(lambda))
		if i > 0 {
			p.Down = append(p.Down, one(float64(i)*mu))
		}
	}
	p.Down = append(p.Down, one(float64(c)*mu)) // Down[c]
	return p
}

// mErlang2_1 builds the M/E₂/1 queue: service is Erlang-2 with mean 1/mu.
func mErlang2_1(lambda, mu float64) *Process {
	r := 2 * mu // stage rate
	a0 := matrix.Scaled(lambda, matrix.Identity(2))
	a1 := matrix.NewFromRows([][]float64{
		{-(lambda + r), r},
		{0, -(lambda + r)},
	})
	a2 := matrix.NewFromRows([][]float64{{0, 0}, {r, 0}})
	local0 := matrix.New(1, 1)
	local0.Set(0, 0, -lambda)
	up0 := matrix.NewFromRows([][]float64{{lambda, 0}})
	down1 := matrix.NewFromRows([][]float64{{0}, {r}})
	return &Process{
		Local: []*matrix.Dense{local0},
		Up:    []*matrix.Dense{up0},
		Down:  []*matrix.Dense{nil, down1},
		A0:    a0, A1: a1, A2: a2,
	}
}

func TestValidateMM1(t *testing.T) {
	if err := mm1(1, 2).Validate(1e-12); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesBadRowSums(t *testing.T) {
	p := mm1(1, 2)
	p.A0.Set(0, 0, 99)
	if err := p.Validate(1e-12); err == nil {
		t.Fatal("expected row-sum validation error")
	}
}

func TestValidateCatchesShapeErrors(t *testing.T) {
	p := mm1(1, 2)
	p.Up[0] = matrix.New(2, 2)
	if err := p.Validate(1e-12); err == nil {
		t.Fatal("expected shape validation error")
	}
	p2 := &Process{}
	if err := p2.Validate(1e-12); err == nil {
		t.Fatal("expected error for empty boundary")
	}
}

func TestRMatrixMM1(t *testing.T) {
	p := mm1(1, 2)
	r, err := RMatrix(p.A0, p.A1, p.A2, RMatrixOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(r.At(0, 0), 0.5, 1e-10) {
		t.Fatalf("R = %g, want rho = 0.5", r.At(0, 0))
	}
	if res := ResidualR(r, p.A0, p.A1, p.A2); res > 1e-9 {
		t.Fatalf("residual = %g", res)
	}
}

// TestLogarithmicReductionRAllocs: on a primed workspace the classical
// rung allocates only the R it returns (header and backing array); G and
// every interior buffer are workspace scratch.
func TestLogarithmicReductionRAllocs(t *testing.T) {
	p := mErlang2_1(0.7, 1)
	ws := matrix.NewWorkspace()
	n := p.RepeatDim()
	id := ws.Get(n, n).SetIdentity()
	b0, d1, b2, release := uniformize(ws, p.A0, p.A1, p.A2)
	defer release()
	opts := RMatrixOptions{}.withDefaults()
	run := func() {
		if _, _, err := logarithmicReductionR(id, b0, d1, b2, ws, opts); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(10, run); got != 2 {
		t.Fatalf("%v allocations per call, want 2 (the returned R)", got)
	}
}

func TestDriftMM1(t *testing.T) {
	up, down, err := mm1(1, 2).Drift()
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(up, 1, 1e-12) || !almostEq(down, 2, 1e-12) {
		t.Fatalf("drift = (%g, %g), want (1, 2)", up, down)
	}
	stable, err := mm1(3, 2).Stable()
	if err != nil {
		t.Fatal(err)
	}
	if stable {
		t.Fatal("overloaded M/M/1 should be unstable")
	}
}

func TestSolveUnstableReturnsError(t *testing.T) {
	if _, err := Solve(mm1(3, 2), RMatrixOptions{}); err != ErrUnstable {
		t.Fatalf("err = %v, want ErrUnstable", err)
	}
}

func TestSolveMM1Exact(t *testing.T) {
	lambda, mu := 1.0, 2.0
	rho := lambda / mu
	sol, err := Solve(mm1(lambda, mu), RMatrixOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(sol.Boundary[0][0], 1-rho, 1e-10) {
		t.Fatalf("pi0 = %g, want %g", sol.Boundary[0][0], 1-rho)
	}
	for i := 0; i <= 8; i++ {
		want := (1 - rho) * math.Pow(rho, float64(i))
		if got := sol.LevelMass(i); !almostEq(got, want, 1e-10) {
			t.Fatalf("pi_%d = %g, want %g", i, got, want)
		}
	}
	n := sol.MeanLevel()
	if !almostEq(n, rho/(1-rho), 1e-10) {
		t.Fatalf("N = %g, want %g", n, rho/(1-rho))
	}
	if !almostEq(sol.TotalMass(), 1, 1e-10) {
		t.Fatalf("total mass = %g", sol.TotalMass())
	}
}

// erlangCMeanJobs returns E[N] for M/M/c via the Erlang-C formula.
func erlangCMeanJobs(lambda, mu float64, c int) float64 {
	a := lambda / mu
	rho := a / float64(c)
	// P0
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
	erlC := last * p0
	lq := erlC * rho / (1 - rho)
	return lq + a
}

func TestSolveMM2MatchesErlangC(t *testing.T) {
	lambda, mu := 1.4, 1.0
	sol, err := Solve(mmc(lambda, mu, 2), RMatrixOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n := sol.MeanLevel()
	want := erlangCMeanJobs(lambda, mu, 2)
	if !almostEq(n, want, 1e-8) {
		t.Fatalf("N = %g, want %g (Erlang-C)", n, want)
	}
}

func TestSolveMM4MatchesErlangC(t *testing.T) {
	lambda, mu := 3.2, 1.0
	sol, err := Solve(mmc(lambda, mu, 4), RMatrixOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n := sol.MeanLevel()
	want := erlangCMeanJobs(lambda, mu, 4)
	if !almostEq(n, want, 1e-8) {
		t.Fatalf("N = %g, want %g (Erlang-C)", n, want)
	}
}

func TestSolveMErlang21MatchesPK(t *testing.T) {
	// M/G/1 Pollaczek–Khinchine: N = ρ + ρ²(1+c_s²)/(2(1−ρ)), c_s² = 1/2.
	lambda, mu := 0.7, 1.0
	rho := lambda / mu
	sol, err := Solve(mErlang2_1(lambda, mu), RMatrixOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n := sol.MeanLevel()
	want := rho + rho*rho*(1+0.5)/(2*(1-rho))
	if !almostEq(n, want, 1e-8) {
		t.Fatalf("N = %g, want %g (P-K)", n, want)
	}
}

func TestTailProbConsistency(t *testing.T) {
	sol, err := Solve(mErlang2_1(0.6, 1), RMatrixOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(sol.TailProb(0), 1, 1e-9) {
		t.Fatalf("TailProb(0) = %g, want 1", sol.TailProb(0))
	}
	prev := 1.0
	for k := 1; k < 12; k++ {
		p := sol.TailProb(k)
		if p > prev+1e-12 {
			t.Fatalf("TailProb not monotone at %d: %g > %g", k, p, prev)
		}
		// TailProb(k) − TailProb(k+1) == LevelMass(k).
		if diff := p - sol.TailProb(k+1); !almostEq(diff, sol.LevelMass(k), 1e-9) {
			t.Fatalf("tail difference %g != level mass %g at %d", diff, sol.LevelMass(k), k)
		}
		prev = p
	}
}

func TestPhaseMarginalRepeating(t *testing.T) {
	sol, err := Solve(mErlang2_1(0.6, 1), RMatrixOptions{})
	if err != nil {
		t.Fatal(err)
	}
	marg := sol.PhaseMarginalRepeating()
	if !almostEq(matrix.VecSum(marg), sol.TailProb(sol.Process.Boundary()), 1e-9) {
		t.Fatalf("phase marginal mass %g != tail prob %g",
			matrix.VecSum(marg), sol.TailProb(sol.Process.Boundary()))
	}
}

func TestLevelBeyondBoundary(t *testing.T) {
	sol, err := Solve(mm1(1, 2), RMatrixOptions{})
	if err != nil {
		t.Fatal(err)
	}
	l3 := sol.Level(3)
	want := 0.5 * math.Pow(0.5, 3)
	if !almostEq(l3[0], want, 1e-10) {
		t.Fatalf("Level(3) = %g, want %g", l3[0], want)
	}
}

// TestLevelToCopiesWithoutAllocating pins LevelTo to Level's values on
// boundary and repeating levels, and at zero allocations once the level
// is memoized; Level itself keeps returning a fresh copy.
func TestLevelToCopiesWithoutAllocating(t *testing.T) {
	sol, err := Solve(mErlang2_1(0.6, 1), RMatrixOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1, 4} {
		want := sol.Level(i)
		got := sol.LevelTo(make([]float64, len(want)), i)
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("LevelTo(%d)[%d] = %v, Level gives %v", i, j, got[j], want[j])
			}
		}
		want[0] = -1
		if again := sol.Level(i); again[0] == -1 {
			t.Fatalf("Level(%d) shares its storage with an earlier copy", i)
		}
	}
	dst := make([]float64, 2)
	if n := testing.AllocsPerRun(20, func() { sol.LevelTo(dst, 4) }); n != 0 {
		t.Fatalf("LevelTo on a memoized level: %v allocs/op, want 0", n)
	}
}

func TestSpectralRadiusR(t *testing.T) {
	sol, err := Solve(mm1(1, 2), RMatrixOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sp := sol.Cert.SpectralRadius; !almostEq(sp, 0.5, 1e-8) {
		t.Fatalf("sp(R) = %g, want 0.5", sp)
	}
}

// TestCertSpectralRadiusIsTightBound pins the certificate's spectral
// bound to the tight 40-squaring Gelfand bound of the returned R, bit for
// bit, on the logarithmic-reduction and Newton paths: callers report it
// as sp(R) instead of recomputing it.
func TestCertSpectralRadiusIsTightBound(t *testing.T) {
	cold, err := Solve(mErlang2_1(0.6, 1), RMatrixOptions{})
	if err != nil {
		t.Fatal(err)
	}
	newton, err := Solve(mErlang2_1(0.6, 1), RMatrixOptions{Newton: true, NewtonMinOrder: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		rung string
		sol  *Solution
	}{{rungLogReduction, cold}, {rungNewton, newton}} {
		path := c.sol.Cert.Path
		if last := path[len(path)-1]; last != c.rung+": ok" {
			t.Fatalf("%s: accepted %q, path %v", c.rung, last, path)
		}
		want := matrix.SpectralRadiusUpperBound(c.sol.R, 40)
		if got := c.sol.Cert.SpectralRadius; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: Cert.SpectralRadius = %v, tight bound %v", c.rung, got, want)
		}
	}
}

// TestPropertyAgainstTruncatedGTH cross-checks the matrix-geometric solution
// of random birth-death QBDs against brute-force GTH on a deep truncation.
func TestPropertyAgainstTruncatedGTH(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lambda := 0.2 + rng.Float64()*0.9
		mu := lambda + 0.3 + rng.Float64()*2 // ensure stable
		sol, err := Solve(mm1(lambda, mu), RMatrixOptions{})
		if err != nil {
			return false
		}
		n := sol.MeanLevel()
		// Brute force on a truncated chain.
		const depth = 400
		q := matrix.New(depth, depth)
		for i := 0; i < depth; i++ {
			if i+1 < depth {
				q.Set(i, i+1, lambda)
			}
			if i > 0 {
				q.Set(i, i-1, mu)
			}
		}
		markov.CompleteDiagonal(q)
		pi, err := markov.StationaryGTH(q)
		if err != nil {
			return false
		}
		var want float64
		for i, p := range pi {
			want += float64(i) * p
		}
		return almostEq(n, want, 1e-6*(1+want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyRNonNegative checks elementwise non-negativity of R, which the
// minimal solution must satisfy.
func TestPropertyRNonNegative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lambda := 0.1 + rng.Float64()
		mu := 0.3 + rng.Float64()
		p := mErlang2_1(lambda, lambda/(0.3+0.6*rng.Float64())*mu/mu) // keep varied
		stable, err := p.Stable()
		if err != nil || !stable {
			return true // skip unstable draws
		}
		r, err := RMatrix(p.A0, p.A1, p.A2, RMatrixOptions{})
		if err != nil {
			return false
		}
		for i := 0; i < r.Rows(); i++ {
			for j := 0; j < r.Cols(); j++ {
				if r.At(i, j) < -1e-12 {
					return false
				}
			}
		}
		return ResidualR(r, p.A0, p.A1, p.A2) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedMeanMatchesMeanLevel(t *testing.T) {
	// With boundary weights = level index, repeatBase = b, slope = 1,
	// WeightedMean must reproduce MeanLevel exactly.
	sol, err := Solve(mErlang2_1(0.6, 1), RMatrixOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b := sol.Process.Boundary()
	boundary := make([][]float64, b)
	for i := 0; i < b; i++ {
		boundary[i] = make([]float64, len(sol.Boundary[i]))
		for s := range boundary[i] {
			boundary[i][s] = float64(i)
		}
	}
	repeatBase := make([]float64, sol.Process.RepeatDim())
	for s := range repeatBase {
		repeatBase[s] = float64(b)
	}
	got := sol.WeightedMean(boundary, repeatBase, 1)
	want := sol.MeanLevel()
	if !almostEq(got, want, 1e-10) {
		t.Fatalf("WeightedMean = %g, MeanLevel = %g", got, want)
	}
}

func TestWeightedMeanConstantWeightIsMass(t *testing.T) {
	sol, err := Solve(mm1(1, 2), RMatrixOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Weight 1 everywhere, slope 0: total probability mass.
	got := sol.WeightedMean([][]float64{{1}}, []float64{1}, 0)
	if !almostEq(got, 1, 1e-10) {
		t.Fatalf("constant weight mean = %g, want 1", got)
	}
}

func TestSolveValidatesProcess(t *testing.T) {
	p := mm1(1, 2)
	p.A0.Set(0, 0, 42) // break row sums
	if _, err := Solve(p, RMatrixOptions{}); err == nil {
		t.Fatal("expected validation error from Solve")
	}
}

func TestDriftReduciblePhaseProcess(t *testing.T) {
	// Two phases that never communicate: A = A0+A1+A2 is reducible.
	z := matrix.New(2, 2)
	a1 := matrix.NewFromRows([][]float64{{-1, 0}, {0, -1}})
	a0 := matrix.NewFromRows([][]float64{{0.5, 0}, {0, 0.5}})
	a2 := matrix.NewFromRows([][]float64{{0.5, 0}, {0, 0.5}})
	p := &Process{
		Local: []*matrix.Dense{matrix.NewFromRows([][]float64{{-0.5, 0}, {0, -0.5}})},
		Up:    []*matrix.Dense{a0},
		Down:  []*matrix.Dense{nil, a2},
		A0:    a0, A1: a1, A2: a2,
	}
	_ = z
	if _, _, err := p.Drift(); err == nil {
		t.Fatal("expected reducible-phase error")
	}
	if _, err := p.Stable(); err == nil {
		t.Fatal("expected Stable to propagate the error")
	}
	if _, err := Solve(p, RMatrixOptions{}); err == nil {
		t.Fatal("expected Solve to propagate the error")
	}
}

func TestWeightedMeanPanicsOnShape(t *testing.T) {
	sol, err := Solve(mm1(1, 2), RMatrixOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range []func(){
		func() { sol.WeightedMean(nil, []float64{1}, 0) },
		func() { sol.WeightedMean([][]float64{{1, 2}}, []float64{1}, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestRMatrixEmpty(t *testing.T) {
	r, err := RMatrix(matrix.New(0, 0), matrix.New(0, 0), matrix.New(0, 0), RMatrixOptions{})
	if err != nil || r.Rows() != 0 {
		t.Fatalf("empty RMatrix: %v, %v", r, err)
	}
}
