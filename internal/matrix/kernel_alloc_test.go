package matrix

import (
	"math/rand"
	"testing"
)

// mulRow hands its eight-coefficient panel to the kernel by pointer. If
// the compiler cannot see where that pointer goes (a call through a
// function value, say), the panel escapes and every all-nonzero panel
// costs a heap allocation. These pin the dense and Kronecker products
// allocation-free on inputs where every panel is all-nonzero.

func TestMulToAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	a, b, dst := denseRand(rng, 48, 48), denseRand(rng, 48, 48), New(48, 48)
	if n := testing.AllocsPerRun(20, func() { MulTo(dst, a, b) }); n != 0 {
		t.Fatalf("MulTo on an all-nonzero order-48 pair: %v allocs/op, want 0", n)
	}
}

func TestKronMulDenseToAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	kb := NewKron(KronTerm{Coef: 1.5, L: denseRand(rng, 6, 6), R: denseRand(rng, 8, 8)})
	x, dst := denseRand(rng, 48, 48), New(48, 48)
	// AllocsPerRun's warm-up call allocates the block's row buffer once.
	if n := testing.AllocsPerRun(20, func() { kb.MulDenseTo(dst, x) }); n != 0 {
		t.Fatalf("KronBlock.MulDenseTo on an all-nonzero order-48 pair: %v allocs/op, want 0", n)
	}
}
