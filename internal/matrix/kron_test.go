package matrix

import (
	"math"
	"math/rand"
	"testing"
)

// TestNewKronPinsEntryFormula pins NewKron bit for bit to its entry
// formula: entry (i, j) of Σ c·(L ⊗ R) is
// Σ_t fl(c_t·fl(L_t[i/rr, j/rc]·R_t[i%rr, j%rc])), summed in term order
// over the terms whose two factors are both non-zero there. Factors are
// rectangular and signed, with exact zeros, so the index arithmetic and
// the zero skips are both exercised.
func TestNewKronPinsEntryFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 12; trial++ {
		lr, lc := 1+rng.Intn(4), 1+rng.Intn(4)
		rr, rc := 1+rng.Intn(5), 1+rng.Intn(5)
		terms := make([]KronTerm, 1+rng.Intn(3))
		for k := range terms {
			terms[k] = KronTerm{
				Coef: rng.Float64() - 0.25,
				L:    randDense(rng, lr, lc, 0.6),
				R:    randDense(rng, rr, rc, 0.6),
			}
		}
		got := NewKron(terms...)
		if got.rows != lr*rr || got.cols != lc*rc {
			t.Fatalf("trial %d: NewKron is %dx%d, want %dx%d", trial, got.rows, got.cols, lr*rr, lc*rc)
		}
		for i := 0; i < got.rows; i++ {
			for j := 0; j < got.cols; j++ {
				want := 0.0
				for _, tm := range terms {
					lv, rv := tm.L.At(i/rr, j/rc), tm.R.At(i%rr, j%rc)
					if lv != 0 && rv != 0 {
						want += tm.Coef * (lv * rv)
					}
				}
				if math.Float64bits(got.At(i, j)) != math.Float64bits(want) {
					t.Fatalf("trial %d: entry (%d,%d) = %v, want %v", trial, i, j, got.At(i, j), want)
				}
			}
		}
	}
}
