package core

import (
	"fmt"

	"repro/internal/phase"
)

// classState is one state of the class-p Markov process {X_p(t)} of paper
// §4.1: (arrival phase, service-phase occupancy vector, cycle phase).
//
// The cycle phase k ranges over the quantum phases 0..MG−1 (class p in
// service — the paper's k_p ∈ {1..M_p}) followed by the intervisit phases
// MG..MG+NF−1 (other classes in service — k_p ∈ {M_p+1..M_p+N_p}).
type classState struct {
	a int   // arrival phase of A_p
	j []int // j[n] = number of in-service class-p jobs whose B_p is in phase n
	k int   // cycle phase
}

// classSpace enumerates and indexes the per-level state spaces of one
// class's QBD. Levels 0..C−1 (C = P/g(p) partitions) form the boundary;
// levels ≥ C share the repeating space with all partitions busy.
//
// A level-i state's index is pure arithmetic on its coordinates: level 0
// holds (a, f) at a·NF + f; level i ≥ 1 holds (a, j, k) at
// (a·|J_i| + rank(j))·(MG+NF) + k, where rank is j's position in the
// lexicographic order of compositions and |J_i| the number of
// occupancy vectors with min(i, C) jobs. levels lists the states in
// exactly that order.
type classSpace struct {
	servers int // C = P/g(p)
	mA      int // arrival phases
	mB      int // service phases
	mG      int // quantum phases
	nF      int // intervisit phases

	arrival, service, quantum, intervisit *phase.Dist

	batch    []float64 // batch[k] = P[batch = k+1]; {1} for single arrivals
	maxBatch int

	levels [][]classState // levels[i] for i = 0..C (C = repeating space)
	// ncomp[m][t] counts the compositions of t into m non-negative parts,
	// for m ≤ MB and t ≤ C: the rank and level-size table.
	ncomp [][]int
	// svcOff[l] counts the service states (quantum cycle phases) on
	// levels 1..l−1, for l ≤ C+1.
	svcOff []int

	// Rate tables, recomputed by every bind: the exit vectors of the four
	// distributions, and per number of jobs entering service at once the
	// occupancy vectors they can land in (structural) with their
	// multinomial probabilities under β (rates).
	exitA, exitB, exitG, exitF []float64
	entry                      [][][]int
	entryProb                  [][]float64

	zeros []int // the empty occupancy vector
	dest  []int // emit's scratch for destination occupancies
}

// newClassSpace builds the state spaces for class p of model m, given the
// class's intervisit distribution F.
func newClassSpace(m *Model, p int, intervisit *phase.Dist) *classSpace {
	c := m.Classes[p]
	sp := &classSpace{
		servers:  m.Servers(p),
		mA:       c.Arrival.Order(),
		mB:       c.Service.Order(),
		mG:       c.Quantum.Order(),
		nF:       intervisit.Order(),
		maxBatch: c.MaxBatch(),
	}
	sp.ncomp = make([][]int, sp.mB+1)
	for parts := range sp.ncomp {
		sp.ncomp[parts] = make([]int, sp.servers+1)
		for t := range sp.ncomp[parts] {
			switch {
			case t == 0:
				sp.ncomp[parts][t] = 1
			case parts > 0:
				sp.ncomp[parts][t] = sp.ncomp[parts][t-1] + sp.ncomp[parts-1][t]
			}
		}
	}
	sp.levels = make([][]classState, sp.servers+1)
	sp.svcOff = make([]int, sp.servers+2)
	for i := 0; i <= sp.servers; i++ {
		sp.levels[i] = sp.enumerate(i)
		if i >= 1 {
			sp.svcOff[i+1] = sp.svcOff[i] + sp.mA*sp.ncomp[sp.mB][i]*sp.mG
		}
	}
	sp.entry = make([][][]int, min(sp.servers, sp.maxBatch)+1)
	sp.entryProb = make([][]float64, len(sp.entry))
	for n := 1; n < len(sp.entry); n++ {
		sp.entry[n] = compositions(n, sp.mB)
		sp.entryProb[n] = make([]float64, len(sp.entry[n]))
	}
	sp.zeros = make([]int, sp.mB)
	sp.dest = make([]int, sp.mB)
	sp.bind(m, p, intervisit)
	return sp
}

// bind points the space at class p's distributions in m and intervisit,
// and recomputes the rate tables from them.
func (sp *classSpace) bind(m *Model, p int, intervisit *phase.Dist) {
	c := m.Classes[p]
	sp.arrival, sp.service, sp.quantum, sp.intervisit = c.Arrival, c.Service, c.Quantum, intervisit
	sp.batch = c.Batch
	if len(sp.batch) == 0 {
		sp.batch = []float64{1}
	}
	sp.exitA = sp.arrival.ExitVector()
	sp.exitB = sp.service.ExitVector()
	sp.exitG = sp.quantum.ExitVector()
	sp.exitF = sp.intervisit.ExitVector()
	for n := 1; n < len(sp.entry); n++ {
		for i, v := range sp.entry[n] {
			sp.entryProb[n][i] = multinomialProb(v, sp.service.Alpha)
		}
	}
}

// rebind repoints the space's distributions at a new model and
// intervisit whose phase orders, batch support and partitioning all
// match the ones the space was enumerated for. It reports false — space
// unchanged — on any structural difference; the enumerated state space
// depends only on those orders, so after a successful rebind the levels
// and index arithmetic remain valid and only emitted rates change.
func (sp *classSpace) rebind(m *Model, p int, intervisit *phase.Dist) bool {
	if p < 0 || p >= len(m.Classes) {
		return false
	}
	c := m.Classes[p]
	if m.Servers(p) != sp.servers ||
		c.Arrival.Order() != sp.mA ||
		c.Service.Order() != sp.mB ||
		c.Quantum.Order() != sp.mG ||
		intervisit.Order() != sp.nF ||
		max(len(c.Batch), 1) != len(sp.batch) ||
		c.MaxBatch() != sp.maxBatch {
		return false
	}
	sp.bind(m, p, intervisit)
	return true
}

// enumerate lists the states of level i (capped at the repeating level C).
// Level 0 has no jobs and therefore no quantum phases: when the class-p
// queue is empty the scheduler skips straight past p's slice (paper §3.1),
// so only intervisit phases are reachable.
func (sp *classSpace) enumerate(i int) []classState {
	inService := i
	if inService > sp.servers {
		inService = sp.servers
	}
	var states []classState
	if i == 0 {
		for a := 0; a < sp.mA; a++ {
			for f := 0; f < sp.nF; f++ {
				states = append(states, classState{a: a, j: make([]int, sp.mB), k: sp.mG + f})
			}
		}
		return states
	}
	for a := 0; a < sp.mA; a++ {
		for _, j := range compositions(inService, sp.mB) {
			for k := 0; k < sp.mG+sp.nF; k++ {
				states = append(states, classState{a: a, j: j, k: k})
			}
		}
	}
	return states
}

// stateIndex returns the index of st within its level (levels above C map
// onto the repeating space). A state outside the level panics: only a
// bug in the transition emission can produce one.
func (sp *classSpace) stateIndex(level int, st classState) int {
	if level > sp.servers {
		level = sp.servers
	}
	if level >= 0 && st.a >= 0 && st.a < sp.mA && len(st.j) == sp.mB {
		if level == 0 {
			if f := st.k - sp.mG; f >= 0 && f < sp.nF && sp.compositionRank(0, st.j) == 0 {
				return st.a*sp.nF + f
			}
		} else if r := sp.compositionRank(level, st.j); r >= 0 && st.k >= 0 && st.k < sp.mG+sp.nF {
			return (st.a*sp.ncomp[sp.mB][level]+r)*(sp.mG+sp.nF) + st.k
		}
	}
	panic(fmt.Sprintf("core: state %+v not in level %d", st, level))
}

// compositionRank returns the position of j in compositions(total,
// len(j)), or −1 when j is not a composition of total. Compositions are
// ordered by descending first entry, so the ones ahead of j are, for
// each entry n, those agreeing on j[0..n) with a larger j[n]: by the
// hockey-stick identity, ncomp[parts][rem−j[n]−1] of them.
func (sp *classSpace) compositionRank(total int, j []int) int {
	rank, rem := 0, total
	last := len(j) - 1
	for n, v := range j[:last] {
		if v < 0 || v > rem {
			return -1
		}
		if v < rem {
			rank += sp.ncomp[last+1-n][rem-v-1]
		}
		rem -= v
	}
	if j[last] != rem {
		return -1
	}
	return rank
}

// dim returns the number of states at the given level.
func (sp *classSpace) dim(level int) int {
	if level > sp.servers {
		level = sp.servers
	}
	return len(sp.levels[level])
}

// serviceOffset returns the number of service states on levels
// 1..lev−1 (lev ≥ 1); every level above C holds as many as level C.
func (sp *classSpace) serviceOffset(lev int) int {
	c := sp.servers
	if lev <= c+1 {
		return sp.svcOff[lev]
	}
	return sp.svcOff[c+1] + (lev-c-1)*(sp.svcOff[c+1]-sp.svcOff[c])
}

// inQuantum reports whether cycle phase k is a quantum (service) phase.
func (sp *classSpace) inQuantum(k int) bool { return k < sp.mG }

// compositions returns all vectors of length parts with non-negative
// entries summing to total, in lexicographic order. This enumerates the
// paper's service-phase occupancy vectors (j_p¹, …, j_p^{m_Bp}).
func compositions(total, parts int) [][]int {
	if parts == 0 {
		if total == 0 {
			return [][]int{{}}
		}
		return nil
	}
	if parts == 1 {
		return [][]int{{total}}
	}
	var out [][]int
	for first := total; first >= 0; first-- {
		for _, rest := range compositions(total-first, parts-1) {
			v := make([]int, 0, parts)
			v = append(v, first)
			v = append(v, rest...)
			out = append(out, v)
		}
	}
	return out
}

// multinomialProb returns the probability that `sum(v)` jobs, each drawing
// an independent initial service phase from beta, land with occupancy
// vector v: (Σv)!/(Πv!)·Πβ^v.
func multinomialProb(v []int, beta []float64) float64 {
	p := 1.0
	total := 0
	for m, cnt := range v {
		for i := 0; i < cnt; i++ {
			total++
			p *= beta[m] * float64(total) / float64(i+1)
		}
	}
	return p
}
