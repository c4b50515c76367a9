package core

import (
	"fmt"

	"repro/internal/matrix"
	"repro/internal/phase"
	"repro/internal/qbd"
)

// BuildClassProcess constructs the class-p quasi-birth-death process of
// paper §4.1–4.2 for the given intervisit distribution F_p. The level is
// the number of class-p jobs in the system; levels 0..C−1 (C = P/g(p))
// form the boundary and levels ≥ C repeat.
//
// Transition structure (paper Figure 1 generalized to phase-type
// parameters):
//
//   - the arrival process A_p runs in every state; an arrival raises the
//     level, assigning the new job a fresh service phase when a partition
//     is free (level < C);
//   - service phases evolve and jobs complete only while the cycle phase is
//     a quantum phase (class p holds the machine); above level C a
//     completion backfills the freed partition from the queue;
//   - a completion that empties the queue switches immediately to the
//     intervisit period (early switch, §3.1), as does quantum expiry;
//   - at level 0 the intervisit period regenerates without visiting
//     quantum phases (the scheduler skips an empty class).
func BuildClassProcess(m *Model, p int, intervisit *phase.Dist) (*qbd.Process, *classSpace, error) {
	proc, sp, _, err := buildClassProcess(m, p, intervisit, 0)
	return proc, sp, err
}

// classBlocks are one level's generator blocks during assembly and,
// retained in ClassChain, the targets of in-place refills.
type classBlocks struct{ down, local, up *matrix.Dense }

// buildClassProcess is BuildClassProcess plus the level-block slice the
// assembled Process aliases, so a Session can refill the generator in
// place on a rates-only model change.
func buildClassProcess(m *Model, p int, intervisit *phase.Dist, maxDensity float64) (*qbd.Process, *classSpace, []classBlocks, error) {
	if err := m.Validate(); err != nil {
		return nil, nil, nil, err
	}
	if p < 0 || p >= len(m.Classes) {
		return nil, nil, nil, fmt.Errorf("core: class %d outside [0, %d)", p, len(m.Classes))
	}
	if err := validateIntervisit(intervisit); err != nil {
		return nil, nil, nil, err
	}
	sp := newClassSpace(m, p, intervisit)
	c := sp.servers

	lv := make([]classBlocks, c+2) // 0..C, plus C+1 for the repeating down block
	for i := 0; i <= c+1; i++ {
		di := sp.dim(i)
		lv[i].local = matrix.New(di, di)
		lv[i].up = matrix.New(di, sp.dim(i+1))
		if i > 0 {
			lv[i].down = matrix.New(di, sp.dim(i-1))
		}
	}
	fillClassBlocks(sp, lv)

	proc := &qbd.Process{
		A0: matrix.Op(lv[c].up),
		A1: matrix.Op(lv[c].local),
		A2: matrix.Op(lv[c+1].down),
	}
	proc.Down = append(proc.Down, nil)
	for i := 0; i < c; i++ {
		proc.Local = append(proc.Local, lv[i].local)
		proc.Up = append(proc.Up, lv[i].up)
	}
	for i := 1; i <= c; i++ {
		proc.Down = append(proc.Down, lv[i].down)
	}
	if err := certifyClassProcess(proc, maxDensity); err != nil {
		return nil, nil, nil, err
	}
	return proc, sp, lv, nil
}

func validateIntervisit(intervisit *phase.Dist) error {
	if err := intervisit.Validate(); err != nil {
		return fmt.Errorf("core: intervisit distribution: %w", err)
	}
	if intervisit.AtomAtZero() > 1e-9 {
		return fmt.Errorf("core: intervisit distribution has an atom at zero")
	}
	return nil
}

// fillClassBlocks emits every transition of the class process into the
// (zeroed) level blocks and completes the diagonals so each level's
// blocks form generator rows. The emission order is deterministic, so
// refilling zeroed blocks reproduces a fresh build bit for bit.
func fillClassBlocks(sp *classSpace, lv []classBlocks) {
	c := sp.servers
	for i := 0; i <= c+1; i++ {
		level := i
		if level > c {
			level = c
		}
		for si, st := range sp.levels[level] {
			sp.emit(i, st, func(destLevel int, dest classState, rate float64) {
				if rate == 0 {
					return
				}
				dj := sp.stateIndex(destLevel, dest)
				switch {
				case destLevel == i:
					lv[i].local.Add(si, dj, rate)
				case destLevel == i+1:
					lv[i].up.Add(si, dj, rate)
				case destLevel == i-1:
					lv[i].down.Add(si, dj, rate)
				default:
					panic(fmt.Sprintf("core: transition skips levels: %d -> %d", i, destLevel))
				}
			})
		}
	}
	for i := 0; i <= c; i++ {
		completeDiag(lv[i].local, lv[i].up, lv[i].down)
	}
}

// certifyClassProcess runs the post-assembly checks shared by fresh
// builds and refills: representation adoption of the arrival (A0) and
// service-completion (A2) blocks — a handful of entries per row — so the
// solvers run their CSR product fast path, then generator-row
// validation. maxDensity is the adoption threshold (SolveOptions.
// SparseMaxDensity; non-positive means matrix.DefaultAdoptMaxDensity).
// Adoption runs first: on a refill the CSR operators still carry the
// previous rates until Adopt resyncs them from their refilled dense
// origins (an in-place value update when the sparsity pattern is
// unchanged, allocating nothing).
func certifyClassProcess(proc *qbd.Process, maxDensity float64) error {
	proc.Adopt(maxDensity)
	if err := proc.Validate(1e-8); err != nil {
		return fmt.Errorf("core: built process invalid: %w", err)
	}
	return nil
}

func completeDiag(local, up, down *matrix.Dense) {
	for i := 0; i < local.Rows(); i++ {
		var s float64
		for j := 0; j < local.Cols(); j++ {
			s += local.At(i, j)
		}
		for j := 0; j < up.Cols(); j++ {
			s += up.At(i, j)
		}
		if down != nil {
			for j := 0; j < down.Cols(); j++ {
				s += down.At(i, j)
			}
		}
		local.Add(i, i, -s)
	}
}

// emit enumerates every outgoing transition of state st at level i,
// invoking add(destLevel, destState, rate) for each. Self-transitions may
// be emitted; diagonal completion cancels them exactly. A destination's
// occupancy vector may be the space's scratch, rewritten by the next
// transition: add may index it but must not retain it. emit allocates
// nothing; every rate table it reads was computed by the space's bind.
func (sp *classSpace) emit(i int, st classState, add func(int, classState, float64)) {
	sa, sb, sg, sf := sp.arrival.S, sp.service.S, sp.quantum.S, sp.intervisit.S
	sa0, sb0, sg0, sf0 := sp.exitA, sp.exitB, sp.exitG, sp.exitF
	alphaA, betaB, alphaG, alphaF := sp.arrival.Alpha, sp.service.Alpha, sp.quantum.Alpha, sp.intervisit.Alpha
	dj := sp.dest

	// Arrival-phase internal transitions.
	for a2 := 0; a2 < sp.mA; a2++ {
		if a2 == st.a {
			continue
		}
		if r := sa.At(st.a, a2); r > 0 {
			add(i, classState{a: a2, j: st.j, k: st.k}, r)
		}
	}
	// Arrival events: a batch of k jobs raises the level by k; the jobs
	// that find free partitions enter service with independent fresh
	// phases (multinomial over β), the rest queue.
	if sa0[st.a] > 0 {
		inService := min(i, sp.servers)
		for a2 := 0; a2 < sp.mA; a2++ {
			for kb, bq := range sp.batch {
				size := kb + 1
				base := sa0[st.a] * alphaA[a2] * bq
				if base == 0 {
					continue
				}
				enter := min(sp.servers-inService, size)
				if enter == 0 {
					add(i+size, classState{a: a2, j: st.j, k: st.k}, base)
					continue
				}
				for c, v := range sp.entry[enter] {
					pr := sp.entryProb[enter][c]
					if pr == 0 {
						continue
					}
					for n := range dj {
						dj[n] = st.j[n] + v[n]
					}
					add(i+size, classState{a: a2, j: dj, k: st.k}, base*pr)
				}
			}
		}
	}

	if i >= 1 && sp.inQuantum(st.k) {
		// Service-phase internal transitions.
		for n := 0; n < sp.mB; n++ {
			if st.j[n] == 0 {
				continue
			}
			jn := float64(st.j[n])
			for mph := 0; mph < sp.mB; mph++ {
				if mph == n {
					continue
				}
				if r := sb.At(n, mph); r > 0 {
					add(i, classState{a: st.a, j: moveJob(dj, st.j, n, mph), k: st.k}, jn*r)
				}
			}
			// Completions.
			base := jn * sb0[n]
			if base == 0 {
				continue
			}
			switch {
			case i == 1:
				// Queue empties: early switch into the intervisit period.
				for f := 0; f < sp.nF; f++ {
					if alphaF[f] > 0 {
						add(0, classState{a: st.a, j: sp.zeros, k: sp.mG + f}, base*alphaF[f])
					}
				}
			case i <= sp.servers:
				// A partition is freed; no queued job to backfill.
				add(i-1, classState{a: st.a, j: moveJob(dj, st.j, n, -1), k: st.k}, base)
			default:
				// Backfill the freed partition from the queue.
				for mph := 0; mph < sp.mB; mph++ {
					if betaB[mph] > 0 {
						add(i-1, classState{a: st.a, j: moveJob(dj, st.j, n, mph), k: st.k}, base*betaB[mph])
					}
				}
			}
		}
		// Quantum-phase internal transitions.
		for k2 := 0; k2 < sp.mG; k2++ {
			if k2 == st.k {
				continue
			}
			if r := sg.At(st.k, k2); r > 0 {
				add(i, classState{a: st.a, j: st.j, k: k2}, r)
			}
		}
		// Quantum expiry: enter the intervisit period.
		if sg0[st.k] > 0 {
			for f := 0; f < sp.nF; f++ {
				if alphaF[f] > 0 {
					add(i, classState{a: st.a, j: st.j, k: sp.mG + f}, sg0[st.k]*alphaF[f])
				}
			}
		}
	}

	if !sp.inQuantum(st.k) {
		f := st.k - sp.mG
		// Intervisit-phase internal transitions.
		for f2 := 0; f2 < sp.nF; f2++ {
			if f2 == f {
				continue
			}
			if r := sf.At(f, f2); r > 0 {
				add(i, classState{a: st.a, j: st.j, k: sp.mG + f2}, r)
			}
		}
		// Intervisit ends: class p's slice comes around again.
		if sf0[f] > 0 {
			if i >= 1 {
				for g := 0; g < sp.mG; g++ {
					if alphaG[g] > 0 {
						add(i, classState{a: st.a, j: st.j, k: g}, sf0[f]*alphaG[g])
					}
				}
			} else {
				// Empty queue: skip the quantum, start the next intervisit.
				for f2 := 0; f2 < sp.nF; f2++ {
					if alphaF[f2] > 0 {
						add(0, classState{a: st.a, j: sp.zeros, k: sp.mG + f2}, sf0[f]*alphaF[f2])
					}
				}
			}
		}
	}
}

// moveJob writes j into dst with one job moved out of phase from and
// into phase to (−1: the job leaves service) and returns dst.
func moveJob(dst, j []int, from, to int) []int {
	copy(dst, j)
	dst[from]--
	if to >= 0 {
		dst[to]++
	}
	return dst
}
