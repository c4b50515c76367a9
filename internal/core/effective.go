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
// The subgenerator is a band — a level connects only to the one below
// and to the levels a batch can reach — so −Q_b^p is assembled,
// factorized and solved in band storage (matrix.BandLU): with nt
// service states and bandwidths p below and q above the diagonal (see
// absorbingChain), elimination costs O(nt·p·(p+q)) and storage
// O(nt·(p+q)), where a dense LU costs O(nt²·p) and nt², with bitwise
// the dense LU's answers. The band, the vectors and the stationary-level
// buffer live in the chain's grow-only scratch: it grows only when the
// truncation depth exceeds every earlier one, and a repeat extraction
// from one chain and solution allocates only its result.
func ExtractEffectiveQuantum(ch *ClassChain, sol *qbd.Solution, tailEps float64, cap int) (*EffectiveQuantum, error) {
	sc := &ch.quantum
	init, atom, err := ch.absorbingChain(sol, tailEps, cap, sc)
	if err != nil {
		return nil, err
	}
	nt := len(init)

	// Absorption moments E[τⁱ] = i!·ξ·(−T)⁻ⁱ·e, the same computation as
	// markov.AbsorbingChain on the negated subgenerator.
	if err := sc.band.Factorize(); err != nil {
		return nil, fmt.Errorf("core: effective-quantum chain: transient states cannot all reach absorption: %w", err)
	}
	x, y := growVec(&sc.x, nt), growVec(&sc.y, nt)
	for i := range x {
		x[i] = 1
	}
	var ms [3]float64
	fact := 1.0
	for i := 1; i <= len(ms); i++ {
		sc.band.SolveVecTo(y, x)
		x, y = y, x
		fact *= float64(i)
		ms[i-1] = fact * matrix.Dot(init, x)
	}
	return &EffectiveQuantum{Atom: atom, Moments: ms}, nil
}

// quantumScratch is a chain's effective-quantum extraction scratch. Each
// buffer only grows, and is re-sliced to the order of the current
// truncation, so a long-lived session holds one set per class whatever
// truncation depths its solves reach. The band is held by pointer: a
// rebuilt chain takes over its predecessor's scratch by copying this
// struct, and the two must not end up with diverging copies of the
// band's slice headers.
type quantumScratch struct {
	band       *matrix.BandLU // −T, assembled and factorized in place
	init, x, y []float64
	level      []float64 // the stationary level the ξ loop reads
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
// negated service-state subgenerator −T in sc.band and the
// start-of-quantum vector ξ over levels 1..k, where k is the truncation
// depth chosen from tailEps and cap (non-positive means 1e-10 and 400),
// plus the atom at zero. ξ aliases sc and both are overwritten by the
// next call.
//
// Service states are numbered level by level in state order: the one
// with index idx at level l sits at serviceOffset(l) + (idx/(MG+NF))·MG
// + idx mod (MG+NF), because k is the fastest coordinate of the state
// index and the quantum phases come first. A transition moves at most
// one level down or maxBatch levels up, so with w service states in the
// widest level −T has lower bandwidth 2w−1 and upper bandwidth
// (maxBatch+1)·w−1.
func (ch *ClassChain) absorbingChain(sol *qbd.Solution, tailEps float64, cap int, sc *quantumScratch) ([]float64, float64, error) {
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
		return nil, 0, fmt.Errorf("core: class has no service states (quantum of order 0?)")
	}
	if sc.band == nil {
		sc.band = new(matrix.BandLU)
	}
	width := sp.serviceOffset(b+1) - sp.serviceOffset(b) // the repeating level is the widest
	band := sc.band
	band.Reset(nt, 2*width-1, (sp.maxBatch+1)*width-1)

	// Build −T: transitions between service states keep their rates,
	// negated; everything else is absorption. Transitions up from the
	// truncation level are reflected (dropped without entering the
	// diagonal), the standard finite-buffer truncation. Adding −rate
	// rounds to exactly the negation of adding rate, so −T holds
	// bitwise the negated entries of T (up to the sign of zeros, which
	// never reaches a solution).
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
						band.Add(row, col, -rate)
					} else {
						total -= rate // self-transition: no effect
					}
				}
				// Otherwise the transition leaves the service set: absorption.
			})
			band.Add(row, row, total)
			row++
		}
	}

	// Start-of-quantum weights ξ: intervisit endings, level by level. An
	// ending in state (a, j, MG+f) starts the quantum in (a, j, g).
	init := growVec(&sc.init, nt)
	var atomW, totalW float64
	alphaG := sp.quantum.Alpha
	for lev := 0; lev <= k; lev++ {
		pi := ch.physicalLevelTo(&sc.level, sol, lev)
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
		return nil, 0, fmt.Errorf("core: no intervisit endings observed in steady state")
	}
	matrix.ScaleVec(1/totalW, init)
	return init, atomW / totalW, nil
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
