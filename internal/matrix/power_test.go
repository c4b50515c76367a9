package matrix

import (
	"math"
	"math/rand"
	"testing"
)

// referenceBound is the fixed-count Gelfand chain: it always runs every
// squaring and returns the last partial ‖a^{2^k}‖∞^{1/2^k}. The
// bracketed bound must agree with it.
func referenceBound(a *Dense, squarings int) float64 {
	n := a.rows
	if n == 0 {
		return 0
	}
	m := a.Clone()
	sq := New(n, n)
	logBound := 0.0
	weight := 1.0
	for k := 0; k < squarings; k++ {
		norm := m.InfNorm()
		if norm == 0 {
			return 0
		}
		logBound += weight * math.Log(norm)
		weight /= 2
		ScaledTo(m, 1/norm, m)
		MulTo(sq, m, m)
		m, sq = sq, m
	}
	logBound += weight * math.Log(math.Max(m.InfNorm(), 1e-300))
	return math.Exp(logBound)
}

// roundingAllowance is the relative inflation spectralBound applies to a
// Collatz–Wielandt upper ratio of an order-n matrix.
func roundingAllowance(n int) float64 { return float64(n+2) * 0x1p-52 }

// checkBound fails unless the bound of a signed a is the fixed chain's
// bit for bit, or the bound of a non-negative a lies between
// lowerBound(a) and the fixed chain's value, both up to rounding. It
// returns the bound, the fixed chain's value and the squarings the bound
// ran.
//
// The rounding counts both sides. The bound stops with U ≤ L/(1−α), L
// overstates sp(a) by at most its own (n+1)-unit rounding, and U is
// inflated by α, so the bound may exceed sp(a) by 2α + (n+1)u ≤ 3α
// (u = 2⁻⁵³). The fixed chain can land below sp(a): its squares and
// ∞-norms round by about 2n units, its logarithms by |ln b| and exp by
// one more.
func checkBound(t *testing.T, label string, a *Dense) (got, want float64, squarings int) {
	t.Helper()
	got, squarings = spectralBound(a, 0, 40, NewWorkspace())
	want = referenceBound(a, 40)
	if math.IsNaN(got) {
		t.Fatalf("%s: bound is NaN", label)
	}
	if hasNegative(a) {
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: signed bound %v, fixed chain %v", label, got, want)
		}
		return got, want, squarings
	}
	slack := 3*roundingAllowance(a.rows) + (2*float64(a.rows)+math.Abs(math.Log(want))+2)*0x1p-53
	if got > want*(1+slack) {
		t.Fatalf("%s: bound %v above fixed chain %v by %.3g relative", label, got, want, (got-want)/want)
	}
	if lo := lowerBound(a); got < lo*(1-slack) {
		t.Fatalf("%s: bound %v below the lower bound %v on sp(a)", label, got, lo)
	}
	return got, want, squarings
}

// checkTight is checkBound plus agreement with the fixed chain to 1e-10
// relative. That holds wherever the chain converges geometrically; on a
// defective matrix (a Jordan block of order j) it stays about
// 2.5e-11·j above sp(a), and the bound may be the tighter of the two.
func checkTight(t *testing.T, label string, a *Dense) int {
	t.Helper()
	got, want, squarings := checkBound(t, label, a)
	if math.Abs(got-want) > 1e-10*want {
		t.Fatalf("%s: bound %v, fixed chain %v (rel %.3g)", label, got, want, (got-want)/want)
	}
	return squarings
}

// lowerBound is a Collatz–Wielandt lower bound on sp(a) for a
// non-negative a, computed apart from spectralBound: x is the row-sum
// vector of the fixed chain's last power, S the rows with x_i > 0 whose
// ratio (a·x)_i/x_i is within 1e-9 of the largest, and the bound is
// min_{i∈S} (a_SS·x_S)_i/x_i ≤ sp(a_SS) ≤ sp(a), which holds for any
// such S. It is loose (often 0) on a periodic matrix.
func lowerBound(a *Dense) float64 {
	n := a.rows
	m, sq := a.Clone(), New(n, n)
	for k := 0; k < 40; k++ {
		norm := m.InfNorm()
		if norm == 0 {
			return 0
		}
		ScaledTo(m, 1/norm, m)
		MulTo(sq, m, m)
		m, sq = sq, m
	}
	x := m.RowSums()
	ratio := make([]float64, n)
	top := 0.0
	for i, xi := range x {
		if xi > 0 {
			ratio[i] = Dot(a.Row(i), x) / xi
			top = max(top, ratio[i])
		}
	}
	z := make([]float64, n)
	for i, xi := range x {
		if xi > 0 && ratio[i] >= top*(1-1e-9) {
			z[i] = xi
		}
	}
	lo := math.Inf(1)
	for i, zi := range z {
		if zi > 0 {
			lo = min(lo, Dot(a.Row(i), z)/zi)
		}
	}
	if math.IsInf(lo, 1) {
		return 0
	}
	return lo
}

func hasNegative(a *Dense) bool {
	for _, v := range a.data {
		if v < 0 {
			return true
		}
	}
	return false
}

// fill sets a[r0:r1, c0:c1] to independent uniform [0, scale) entries,
// each kept with probability density.
func fill(rng *rand.Rand, a *Dense, r0, r1, c0, c1 int, scale, density float64) {
	for i := r0; i < r1; i++ {
		for j := c0; j < c1; j++ {
			if rng.Float64() < density {
				a.Set(i, j, scale*rng.Float64())
			}
		}
	}
}

// spectralShapes builds one random matrix of order n per shape the bound
// must handle: six non-negative shapes and a signed one.
var spectralShapes = []struct {
	name  string
	build func(rng *rand.Rand, n int) *Dense
}{
	{"positive", func(rng *rand.Rand, n int) *Dense {
		a := New(n, n)
		fill(rng, a, 0, n, 0, n, 1, 1)
		return a
	}},
	{"sparse-irreducible", func(rng *rand.Rand, n int) *Dense {
		// A weighted n-cycle with a self-loop keeps it irreducible and
		// aperiodic; ~3 extra entries per row make it sparse but mixed.
		a := New(n, n)
		fill(rng, a, 0, n, 0, n, 1, math.Min(1, 3/float64(n)))
		for i := 0; i < n; i++ {
			a.Set(i, (i+1)%n, 0.1+rng.Float64())
		}
		a.Set(0, 0, 0.1+rng.Float64())
		return a
	}},
	{"reducible-dominant-first", func(rng *rand.Rand, n int) *Dense {
		a := New(n, n)
		h := (n + 1) / 2
		fill(rng, a, 0, h, 0, h, 1, 1)
		fill(rng, a, 0, h, h, n, 1, 1)
		fill(rng, a, h, n, h, n, 0.4, 1)
		return a
	}},
	{"reducible-dominant-last", func(rng *rand.Rand, n int) *Dense {
		a := New(n, n)
		h := n / 2
		fill(rng, a, 0, h, 0, h, 0.4, 1)
		fill(rng, a, 0, h, h, n, 1, 1)
		fill(rng, a, h, n, h, n, 1, 1)
		return a
	}},
	{"zero-rows", func(rng *rand.Rand, n int) *Dense {
		a := New(n, n)
		fill(rng, a, 0, n, 0, n, 1, 0.7)
		for i := 0; i < n; i++ {
			if i > 0 && rng.Float64() < 0.3 {
				for j := 0; j < n; j++ {
					a.Set(i, j, 0)
				}
			}
		}
		return a
	}},
	{"periodic", func(rng *rand.Rand, n int) *Dense {
		// Bipartite [[0 B] [C 0]]: eigenvalues come in ± pairs, so the
		// row-sum ratios oscillate and the bracket cannot close.
		a := New(n, n)
		h := n / 2
		fill(rng, a, 0, h, h, n, 1, 1)
		fill(rng, a, h, n, 0, h, 1, 1)
		return a
	}},
	{"signed", func(rng *rand.Rand, n int) *Dense {
		a := New(n, n)
		fill(rng, a, 0, n, 0, n, 1, 0.8)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.2 {
					a.Set(i, j, -a.At(i, j))
				}
			}
		}
		a.Set(rng.Intn(n), rng.Intn(n), -0.01-0.5*rng.Float64())
		return a
	}},
	// Last: TestSpectralBoundConstantRowSumsNeedsNoSquaring draws it.
	{"constant-row-sums", func(rng *rand.Rand, n int) *Dense {
		a := New(n, n)
		fill(rng, a, 0, n, 0, n, 1, 0.6)
		a.Set(0, 0, 1)
		rho := 0.2 + 0.75*rng.Float64()
		for i := 0; i < n; i++ {
			row := a.Row(i)
			s := VecSum(row)
			if s == 0 {
				a.Set(i, i, rho)
				continue
			}
			for j, v := range row {
				a.Set(i, j, v*rho/s)
			}
		}
		return a
	}},
}

func TestSpectralBoundMatchesFixedChain(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, shape := range spectralShapes {
		for n := 1; n <= 40; n++ {
			for rep := 0; rep < 3; rep++ {
				a := shape.build(rng, n)
				// Random overall scale: bounds must be relative.
				ScaledTo(a, math.Ldexp(1, rng.Intn(21)-10), a)
				checkTight(t, shape.name, a)
			}
		}
	}
}

func TestSpectralBoundConstantRowSumsNeedsNoSquaring(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for n := 1; n <= 40; n++ {
		a := spectralShapes[len(spectralShapes)-1].build(rng, n)
		if s := checkTight(t, "constant-row-sums", a); s != 0 {
			t.Fatalf("order %d: a·e = ρ·e took %d squarings, want 0", n, s)
		}
	}
	// A Kronecker block whose rates do not depend on the phase: L has
	// constant row sums and R is stochastic.
	k := NewKron(KronTerm{Coef: 1,
		L: NewFromRows([][]float64{{0.2, 0.1}, {0, 0.3}}),
		R: NewFromRows([][]float64{{0.5, 0.5}, {0.25, 0.75}})}).Dense()
	if s := checkTight(t, "kronecker", k); s != 0 {
		t.Fatalf("Kronecker block took %d squarings, want 0", s)
	}
}

// TestSpectralBoundNonFinite: a NaN or ±Inf entry has no spectral radius
// to bound, so both entry points must answer +Inf — never a finite value
// that reads as stable.
func TestSpectralBoundNonFinite(t *testing.T) {
	ws := NewWorkspace()
	for _, a := range []*Dense{
		NewFromRows([][]float64{{math.NaN()}}),
		NewFromRows([][]float64{{0.5, 0}, {math.NaN(), 0.2}}),
		NewFromRows([][]float64{{0.5, math.Inf(1)}, {0, 0.2}}),
		NewFromRows([][]float64{{0.5, 0}, {-0.1, math.Inf(-1)}}),
	} {
		for _, b := range []float64{
			SpectralRadiusUpperBound(a, 40),
			SpectralRadiusUpperBoundWithinWS(a, 1, 40, ws),
		} {
			if !math.IsInf(b, 1) {
				t.Fatalf("bound of %v = %v, want +Inf", a, b)
			}
		}
	}
}

// FuzzSpectralBound fuzzes small matrices: order 1–8, entries from two
// bytes each (a mantissa in [0, 1) and a binary exponent in [−8, 7]),
// rows zeroed and signs flipped by the byte's low bits. The bound must
// never be NaN and must pass checkBound; for a non-negative matrix it
// must also dominate every diagonal entry (sp(a) ≥ max_i a_ii). The
// 1e-10 agreement of checkTight is not asked for: the fuzzer finds
// defective matrices, where the fixed chain itself is looser than that.
func FuzzSpectralBound(f *testing.F) {
	f.Add(uint8(3), []byte{200, 3, 17, 9, 0, 0, 90, 12, 255, 1})
	f.Add(uint8(8), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add(uint8(1), []byte{128, 8})
	f.Add(uint8(4), []byte{0, 0, 64, 8, 0, 0, 64, 8})
	// Edge cases: a 1×1 matrix (the log/exp round trip of ‖a‖∞ can fall
	// below a₁₁), a rank-one matrix with zero rows, near-periodic 2×2 and
	// 3×3 blocks (|λ₂/λ₁| ≈ 0.97), a defective matrix, and partials that
	// converge onto sp(a) exactly.
	f.Add(uint8(0xa0), []byte("0B"))
	f.Add(uint8('}'), []byte("AX\xd0\xd000"))
	f.Add(uint8(3), []byte("\x05x\a\b\t\n"))
	f.Add(uint8('Z'), []byte("0B\x00A\xcc\xcc\xcc\x00"))
	f.Add(uint8(0xcd), []byte("0\x00\x00A\x00A00\x00A\x00A00"))
	f.Add(uint8('g'), []byte("\x000\x00A00\x00A\x00A"))
	f.Fuzz(func(t *testing.T, order uint8, data []byte) {
		pairs := len(data) / 2
		if pairs == 0 {
			return
		}
		n := 1 + int(order)%8
		a := New(n, n)
		for i, k := 0, 0; i < n; i++ {
			if data[(2*i+1)%len(data)]&0x30 == 0x30 {
				k += n // an exact zero row
				continue
			}
			for j := 0; j < n; j, k = j+1, k+1 {
				d := data[2*(k%pairs):]
				v := math.Ldexp(float64(d[0])/256, int(d[1]>>4)-8)
				if d[1]&1 == 1 {
					v = -v
				}
				a.Set(i, j, v)
			}
		}
		b, _, _ := checkBound(t, "fuzz", a)
		for i := 0; i < n && !hasNegative(a); i++ {
			if d := a.At(i, i); b < d {
				t.Fatalf("bound %v below diagonal entry %v of non-negative %v", b, d, a)
			}
		}
	})
}
