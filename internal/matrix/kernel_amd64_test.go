//go:build amd64

package matrix

import (
	"math"
	"math/rand"
	"testing"
)

// The kernel dispatchers promise that both branches — AVX2 and the Go
// loop that CPUs without AVX2 run — produce exactly the Go reference's
// bits, because each element (or column lane) keeps its own serial
// rounded-operation chain. These tests flip useAVX2 to pin both branches
// on randomized lengths covering every vector tail, including the empty
// panel and the empty coefficient row of the last back-substitution step.

// forEachBranch runs body once per dispatch branch this CPU can run,
// restoring useAVX2 afterwards.
func forEachBranch(t *testing.T, body func(t *testing.T)) {
	saved := useAVX2
	defer func() { useAVX2 = saved }()
	branches := []bool{false}
	if hasAVX2() {
		branches = append(branches, true)
	}
	for _, avx2 := range branches {
		useAVX2 = avx2
		name := "go"
		if avx2 {
			name = "avx2"
		}
		t.Run(name, body)
	}
}

func randSlice(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		if rng.Float64() < 0.1 {
			continue // exact zero, exercises ±0 handling
		}
		s[i] = (rng.Float64() - 0.5) * math.Ldexp(1, rng.Intn(20)-10)
	}
	return s
}

func sliceBitsEqual(t *testing.T, ctx string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: [%d] = %x, want %x (values %g vs %g)",
				ctx, i, math.Float64bits(got[i]), math.Float64bits(want[i]), got[i], want[i])
		}
	}
}

func TestPanelKernelBitwiseIdenticalGo(t *testing.T) {
	forEachBranch(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(21))
		for n := 0; n <= 40; n++ { // every octa/quad/pair/scalar tail mix
			ldb := n + rng.Intn(4) + 1
			b := randSlice(rng, 8*ldb)
			var a [8]float64
			for i := range a {
				a[i] = rng.Float64() - 0.5
			}
			ci := randSlice(rng, n)
			want := append([]float64(nil), ci...)
			axpyPanel8Go(want, b, ldb, &a)
			axpyPanel8(ci, b, ldb, &a)
			sliceBitsEqual(t, "axpyPanel8", ci, want)
		}
	})
}

func TestElimRowKernelsBitwiseIdenticalGo(t *testing.T) {
	forEachBranch(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(21))
		for trial := 0; trial < 200; trial++ {
			n := rng.Intn(22) // octa/quad/pair/scalar tails and the empty row
			src := randSlice(rng, n)
			m := (rng.Float64() - 0.5) * 4
			got := randSlice(rng, n)
			want := append([]float64(nil), got...)
			elimRowGo(want, src, m)
			elimRow(got, src, m)
			sliceBitsEqual(t, "elimRow", got, want)
		}
	})
}

func TestSubstitutionKernelsBitwiseIdenticalGo(t *testing.T) {
	forEachBranch(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(22))
		for trial := 0; trial < 200; trial++ {
			cnt := rng.Intn(17) // includes cnt = 0: the last back-substitution row
			row := randSlice(rng, cnt)
			d := 1 + rng.Float64()*3
			x := randSlice(rng, (cnt+1)*8)

			fwdWant := append([]float64(nil), x...)
			fwdStep8Go(fwdWant, row)
			fwd := append([]float64(nil), x...)
			fwdStep8(fwd, row)
			sliceBitsEqual(t, "fwdStep8", fwd, fwdWant)

			backWant := append([]float64(nil), x...)
			backStep8Go(backWant, row, d)
			back := append([]float64(nil), x...)
			backStep8(back, row, d)
			sliceBitsEqual(t, "backStep8", back, backWant)
		}
	})
}
