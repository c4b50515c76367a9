package matrix

import (
	"math/rand"
	"testing"
)

// mulRow hands its eight-coefficient panel to the kernel by pointer. If
// the compiler cannot see where that pointer goes (a call through a
// function value, say), the panel escapes and every all-nonzero panel
// costs a heap allocation. This pins the dense product allocation-free
// on inputs where every panel is all-nonzero.

func denseRand(rng *rand.Rand, r, c int) *Dense {
	d := New(r, c)
	for i := range d.data {
		d.data[i] = rng.NormFloat64()
	}
	return d
}

func TestMulToAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	a, b, dst := denseRand(rng, 48, 48), denseRand(rng, 48, 48), New(48, 48)
	if n := testing.AllocsPerRun(20, func() { MulTo(dst, a, b) }); n != 0 {
		t.Fatalf("MulTo on an all-nonzero order-48 pair: %v allocs/op, want 0", n)
	}
}
