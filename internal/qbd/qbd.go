// Package qbd solves quasi-birth-death processes by matrix-geometric
// methods — the solution engine of paper §4.2 (Theorem 4.2) and §4.4
// (Theorem 4.4). It plays the role of the MAGIC tool [23] cited by the
// paper: computing the minimal non-negative solution R of
//
//	A₀ + R·A₁ + R²·A₂ = 0
//
// by logarithmic reduction (after a certified Newton attempt, where
// enabled), checking stability via the mean-drift condition, solving the
// boundary levels, and producing the stationary measures of §4.5.
package qbd

import (
	"errors"
	"fmt"

	"repro/internal/markov"
	"repro/internal/matrix"
)

// Process is a level-structured CTMC with b ≥ 1 boundary levels 0..b−1 of
// possibly differing dimensions, followed by a repeating portion: levels
// b, b+1, … all of dimension A1.Rows() with up/local/down blocks A0/A1/A2.
//
// Block conventions (all blocks contain rates; Local and A1 carry the
// diagonal):
//
//	Local[i] : level i → level i   (D_i × D_i),   i = 0..b−1
//	Up[i]    : level i → level i+1 (D_i × D_{i+1}), i = 0..b−1, D_b = n
//	Down[i]  : level i → level i−1 (D_i × D_{i−1}), i = 1..b
//
// Down[b] describes the first repeating level's transitions into the last
// boundary level; it may differ from A2 (in the gang model, a departure
// from level P/g(p) frees a partition instead of backfilling it).
type Process struct {
	Local []*matrix.Dense
	Up    []*matrix.Dense
	Down  []*matrix.Dense // indexed 1..b; Down[0] is unused and may be nil

	// A0, A1, A2 are the repeating blocks, plain dense matrices. Whether
	// products with A0 and A2 skip their zeros is the R ladder's private
	// choice, made per solve on its uniformized copies (rmatrix.go).
	A0, A1, A2 *matrix.Dense
}

// Boundary returns b, the number of boundary levels.
func (p *Process) Boundary() int { return len(p.Local) }

// RepeatDim returns the phase dimension of the repeating levels.
func (p *Process) RepeatDim() int { return p.A1.Rows() }

// Validate checks block shapes and that every level's blocks form a
// generator row (total row sums zero within tol).
func (p *Process) Validate(tol float64) error {
	b := p.Boundary()
	if b < 1 {
		return errors.New("qbd: need at least one boundary level")
	}
	if len(p.Up) != b || len(p.Down) != b+1 {
		return fmt.Errorf("qbd: have %d Up and %d Down blocks, want %d and %d", len(p.Up), len(p.Down), b, b+1)
	}
	n := p.RepeatDim()
	if p.A0.Rows() != n || p.A0.Cols() != n || p.A2.Rows() != n || p.A2.Cols() != n || p.A1.Cols() != n {
		return errors.New("qbd: repeating blocks must be square and same size")
	}
	dim := func(i int) int {
		if i >= b {
			return n
		}
		return p.Local[i].Rows()
	}
	for i := 0; i < b; i++ {
		if p.Local[i].Cols() != dim(i) {
			return fmt.Errorf("qbd: Local[%d] is %dx%d, want square", i, p.Local[i].Rows(), p.Local[i].Cols())
		}
		if p.Up[i].Rows() != dim(i) || p.Up[i].Cols() != dim(i+1) {
			return fmt.Errorf("qbd: Up[%d] is %dx%d, want %dx%d", i, p.Up[i].Rows(), p.Up[i].Cols(), dim(i), dim(i+1))
		}
	}
	for i := 1; i <= b; i++ {
		if p.Down[i] == nil {
			return fmt.Errorf("qbd: Down[%d] is nil", i)
		}
		if p.Down[i].Rows() != dim(i) || p.Down[i].Cols() != dim(i-1) {
			return fmt.Errorf("qbd: Down[%d] is %dx%d, want %dx%d", i, p.Down[i].Rows(), p.Down[i].Cols(), dim(i), dim(i-1))
		}
	}
	// Generator row sums per level, with tolerance relative to the row's
	// rate scale (|diagonal|): stiff models with fast context-switch rates
	// legitimately accumulate absolute error proportional to their rates.
	rowOK := func(level string, diag *matrix.Dense, sums ...[]float64) error {
		n := len(sums[0])
		for i := 0; i < n; i++ {
			var t float64
			for _, s := range sums {
				t += s[i]
			}
			scale := 1 + mathAbs(diag.At(i, i))
			if t > tol*scale || t < -tol*scale {
				return fmt.Errorf("qbd: %s row %d sums to %g (scale %g), want 0", level, i, t, scale)
			}
		}
		return nil
	}
	if err := rowOK("level 0", p.Local[0], p.Local[0].RowSums(), p.Up[0].RowSums()); err != nil {
		return err
	}
	for i := 1; i < b; i++ {
		if err := rowOK(fmt.Sprintf("level %d", i), p.Local[i], p.Down[i].RowSums(), p.Local[i].RowSums(), p.Up[i].RowSums()); err != nil {
			return err
		}
	}
	if err := rowOK(fmt.Sprintf("level %d (first repeating)", b), p.A1, p.Down[b].RowSums(), p.A1.RowSums(), p.A0.RowSums()); err != nil {
		return err
	}
	if err := rowOK("repeating", p.A1, p.A2.RowSums(), p.A1.RowSums(), p.A0.RowSums()); err != nil {
		return err
	}
	return nil
}

func mathAbs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Drift reports the stability margin of Theorem 4.4: the process is
// positive recurrent iff upRate < downRate, where upRate = y·A₀·e and
// downRate = y·A₂·e for y the stationary vector of A = A₀+A₁+A₂.
func (p *Process) Drift() (upRate, downRate float64, err error) {
	a := matrix.Sum(matrix.Sum(p.A0, p.A1), p.A2)
	y, err := markov.StationaryGTH(a)
	if err != nil {
		return 0, 0, fmt.Errorf("qbd: phase process A is reducible: %w", err)
	}
	return matrix.Dot(y, p.A0.RowSums()), matrix.Dot(y, p.A2.RowSums()), nil
}

// Stable reports whether the drift condition for positive recurrence
// holds: up < down by more than the rounding of the two rates. A
// relative allowance of (n+2)·2⁻⁵² for phase order n, the rounding
// allowance of matrix.SpectralRadiusUpperBound, classifies an exactly
// critical process (up = down in exact arithmetic, an ulp or two apart
// once rounded) as unstable: it has no stationary distribution, and the
// R ladder would only spend its budget on the null-recurrent chain.
func (p *Process) Stable() (bool, error) {
	up, down, err := p.Drift()
	if err != nil {
		return false, err
	}
	alpha := float64(p.RepeatDim()+2) * 0x1p-52
	return up < down*(1-alpha), nil
}
