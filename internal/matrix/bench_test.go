//go:build amd64

package matrix

// Kernel A/B benchmark: the same dense multiply through the AVX2 panel
// kernel and through the pure-Go loop that CPUs without AVX2 run.
// `make bench-scale` runs this to put the AVX2-vs-Go numbers in
// BENCH_scale.json; the orders bracket the QBD block sizes the solver
// actually multiplies.

import (
	"fmt"
	"math/rand"
	"testing"
)

func BenchmarkPanelKernel(b *testing.B) {
	saved := useAVX2
	defer func() { useAVX2 = saved }()
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{48, 120} {
		a := randDense(rng, n, n, 1.0)
		c := randDense(rng, n, n, 1.0)
		for _, k := range []struct {
			name string
			avx2 bool
		}{{"avx2", true}, {"go", false}} {
			if k.avx2 && !hasAVX2() {
				continue
			}
			useAVX2 = k.avx2
			b.Run(fmt.Sprintf("n%d/%s", n, k.name), func(b *testing.B) {
				dst := New(n, n)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					MulTo(dst, a, c)
				}
			})
		}
	}
}
