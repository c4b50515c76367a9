package core

import (
	"fmt"

	"repro/internal/matrix"
	"repro/internal/phase"
	"repro/internal/qbd"
)

// EffectiveQuantum is the Theorem 4.3 object: the distribution of the time
// class p actually holds the machine per timeplexing cycle, accounting for
// early switches when its queue empties — including an atom at zero for
// cycles that find the queue empty (the scheduler skips the class).
type EffectiveQuantum struct {
	// Atom is the probability the quantum has length zero (queue empty at
	// the start of the class's slice).
	Atom float64
	// Moments holds the first three raw moments of the quantum length,
	// atom included.
	Moments [3]float64
}

// Mean returns E[quantum] including the atom.
func (e *EffectiveQuantum) Mean() float64 { return e.Moments[0] }

// ConditionalMean returns E[quantum | quantum > 0].
func (e *EffectiveQuantum) ConditionalMean() float64 {
	if e.Atom >= 1 {
		return 0
	}
	return e.Moments[0] / (1 - e.Atom)
}

// ConditionalSCV returns the squared coefficient of variation of the
// quantum conditioned on it being positive.
func (e *EffectiveQuantum) ConditionalSCV() float64 {
	p := 1 - e.Atom
	if p <= 0 {
		return 0
	}
	m1 := e.Moments[0] / p
	m2 := e.Moments[1] / p
	return m2/(m1*m1) - 1
}

// ExtractEffectiveQuantum builds the effective-quantum distribution of
// class p from its solved per-class chain, following Theorem 4.3:
//
//  1. The start-of-quantum distribution ξ_p weights each state by the
//     steady-state rate at which the intervisit period ends there.
//     Intervisit endings at level 0 contribute the atom at zero.
//  2. The chain restricted to service states (levels ≥ 1, quantum cycle
//     phases), with every exit — quantum expiry, queue emptying — made
//     absorbing, is the subgenerator Q_b^p; the time to absorption from
//     ξ_p is the effective quantum.
//
// The infinite level space is truncated at the first level whose stationary
// tail mass drops below tailEps (clamped to [boundary+2, boundary+cap]);
// arrivals at the truncation level are reflected.
//
// The subgenerator, factorized in its own storage, and the solve vectors
// live in the chain's grow-only scratch, so repeated extractions from
// one chain allocate only when the truncation depth exceeds every
// earlier one.
func ExtractEffectiveQuantum(ch *ClassChain, sol *qbd.Solution, tailEps float64, cap int) (*EffectiveQuantum, error) {
	sc := &ch.quantum
	t, init, atom, err := ch.absorbingChain(sol, tailEps, cap, sc)
	if err != nil {
		return nil, err
	}
	nt := len(init)

	// Absorption moments E[τⁱ] = i!·ξ·(−T)⁻ⁱ·e, the same computation as
	// markov.AbsorbingChain on the subgenerator negated and factorized in
	// place.
	matrix.ScaledTo(t, -1, t)
	if sc.lu == nil {
		sc.lu = new(matrix.LU)
	}
	if err := sc.lu.ResetInPlace(t); err != nil {
		return nil, fmt.Errorf("core: effective-quantum chain: transient states cannot all reach absorption: %w", err)
	}
	x, y := growVec(&sc.x, nt), growVec(&sc.y, nt)
	for i := range x {
		x[i] = 1
	}
	var ms [3]float64
	fact := 1.0
	for i := 1; i <= len(ms); i++ {
		sc.lu.SolveVecTo(y, x)
		x, y = y, x
		fact *= float64(i)
		ms[i-1] = fact * matrix.Dot(init, x)
	}
	return &EffectiveQuantum{Atom: atom, Moments: ms}, nil
}

// quantumScratch is a chain's effective-quantum extraction scratch. Each
// buffer only grows, and is re-sliced to the order of the current
// truncation, so a long-lived session holds one set per class whatever
// truncation depths its solves reach.
type quantumScratch struct {
	t          *matrix.Dense
	lu         *matrix.LU // factorizes t in t's storage
	init, x, y []float64
}

// growVec re-slices *buf to length n, reallocating only when it is too
// short, and returns it zeroed.
func growVec(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	clear(*buf)
	return *buf
}

// absorbingChain assembles the Theorem 4.3 absorbing chain in sc: the
// service-state subgenerator T and the start-of-quantum vector ξ over
// levels 1..k, where k is the truncation depth chosen from tailEps and
// cap (non-positive means 1e-10 and 400), plus the atom at zero. T and ξ
// alias sc and are overwritten by the next call.
//
// Service states are numbered level by level in state order: the one
// with index idx at level l sits at serviceOffset(l) + (idx/(MG+NF))·MG
// + idx mod (MG+NF), because k is the fastest coordinate of the state
// index and the quantum phases come first.
func (ch *ClassChain) absorbingChain(sol *qbd.Solution, tailEps float64, cap int, sc *quantumScratch) (*matrix.Dense, []float64, float64, error) {
	if tailEps <= 0 {
		tailEps = 1e-10
	}
	if cap <= 0 {
		cap = 400
	}
	sp := ch.space
	b := sp.servers
	k := b + 2
	for k < b+cap && ch.physicalTailBound(sol, k) > tailEps {
		k++
	}
	nk := sp.mG + sp.nF
	pos := func(lev, idx int) int {
		return sp.serviceOffset(lev) + idx/nk*sp.mG + idx%nk
	}
	nt := sp.serviceOffset(k + 1)
	if nt == 0 {
		return nil, nil, 0, fmt.Errorf("core: class has no service states (quantum of order 0?)")
	}
	if sc.t == nil {
		sc.t = new(matrix.Dense)
	}
	t := sc.t.Resize(nt, nt)

	// Build the subgenerator T: transitions between service states keep
	// their rates; everything else is absorption. Transitions up from the
	// truncation level are reflected (dropped without entering the
	// diagonal), the standard finite-buffer truncation.
	row := 0
	for lev := 1; lev <= k; lev++ {
		for _, st := range sp.levels[min(lev, b)] {
			if !sp.inQuantum(st.k) {
				continue
			}
			var total float64
			sp.emit(lev, st, func(destLevel int, dest classState, rate float64) {
				if rate == 0 {
					return
				}
				if destLevel > k { // reflect at the truncation boundary
					return
				}
				total += rate
				if destLevel >= 1 && sp.inQuantum(dest.k) {
					col := pos(destLevel, sp.stateIndex(destLevel, dest))
					if col != row {
						t.Add(row, col, rate)
					} else {
						total -= rate // self-transition: no effect
					}
				}
				// Otherwise the transition leaves the service set: absorption.
			})
			t.Add(row, row, -total)
			row++
		}
	}

	// Start-of-quantum weights ξ: intervisit endings, level by level. An
	// ending in state (a, j, MG+f) starts the quantum in (a, j, g).
	init := growVec(&sc.init, nt)
	var atomW, totalW float64
	alphaG := sp.quantum.Alpha
	for lev := 0; lev <= k; lev++ {
		pi := ch.PhysicalLevel(sol, lev)
		for idx, st := range sp.levels[min(lev, b)] {
			if sp.inQuantum(st.k) {
				continue
			}
			w := pi[idx] * sp.exitF[st.k-sp.mG]
			if w == 0 {
				continue
			}
			totalW += w
			if lev == 0 {
				atomW += w
				continue
			}
			for g := 0; g < sp.mG; g++ {
				if alphaG[g] == 0 {
					continue
				}
				init[pos(lev, idx-st.k+g)] += w * alphaG[g]
			}
		}
	}
	if totalW <= 0 {
		return nil, nil, 0, fmt.Errorf("core: no intervisit endings observed in steady state")
	}
	matrix.ScaleVec(1/totalW, init)
	return t, init, atomW / totalW, nil
}

// ReducedDist returns a small-order phase-type stand-in for the effective
// quantum: a two-moment fit of the conditional (positive-part)
// distribution, with the atom at zero folded into a deficient initial
// vector. maxOrder caps the Erlang order used for low-variability fits.
func (e *EffectiveQuantum) ReducedDist(maxOrder int) (*phase.Dist, error) {
	if maxOrder < 2 {
		maxOrder = 2
	}
	p := 1 - e.Atom
	if p <= 1e-12 {
		// Degenerate: the class essentially never has work at its slice.
		// Represent as a tiny atom-complement exponential.
		d := phase.Exponential(1 / 1e-9)
		d.Alpha[0] = 1e-12
		return d, nil
	}
	m1 := e.Moments[0] / p
	m2 := e.Moments[1] / p
	scv := m2/(m1*m1) - 1
	var d *phase.Dist
	var err error
	switch {
	case scv <= 0 || 1/scv > float64(maxOrder):
		// Cap the order; match the mean exactly, variance approximately.
		d = phase.Erlang(maxOrder, 1/m1)
	default:
		d, err = phase.FitMeanSCV(m1, scv)
		if err != nil {
			return nil, err
		}
	}
	matrix.ScaleVec(p, d.Alpha)
	return d, nil
}
