package core

import (
	"fmt"

	"repro/internal/matrix"
	"repro/internal/phase"
	"repro/internal/qbd"
)

// ClassChain couples a class's built QBD with the mapping between QBD
// levels and the physical job count. For single arrivals the two
// coincide; with bounded batch arrivals of size ≤ W the level space is
// reblocked into super-levels of W physical levels so that a batch jump
// crosses at most one QBD level (the paper's §3 remark that its analysis
// extends to bounded batches, made concrete).
type ClassChain struct {
	Proc   *qbd.Process
	space  *classSpace
	layout levelLayout

	// blocks, for single-arrival chains, are the level blocks the Proc
	// operators alias; Refill regenerates their entries in place. Nil for
	// batched chains, which always rebuild.
	blocks []classBlocks

	// adoptMaxDensity is the CSR adoption threshold the chain was built
	// with (SolveOptions.SparseMaxDensity); Refill re-adopts with the same
	// threshold so a refilled chain is bit-for-bit a rebuilt one.
	adoptMaxDensity float64

	quantum quantumScratch // ExtractEffectiveQuantum's buffers
}

// Refill regenerates the chain's generator entries in place for a model
// whose structure (partitioning and every phase order) matches the one
// the chain was built for, leaving the state space, block dimensions and
// matrix storage untouched. It reports false — chain unchanged — when
// the chain does not support refilling (batched arrivals) or the new
// model's structure differs, in which case the caller must rebuild. The
// emission pass is the same deterministic sequence as a fresh build, so
// a refilled process is bit-for-bit identical to a rebuilt one.
func (ch *ClassChain) Refill(m *Model, p int, intervisit *phase.Dist) (bool, error) {
	if ch.blocks == nil {
		return false, nil
	}
	if err := m.Validate(); err != nil {
		return false, err
	}
	if err := validateIntervisit(intervisit); err != nil {
		return false, err
	}
	if !ch.space.rebind(m, p, intervisit) {
		return false, nil
	}
	for i := range ch.blocks {
		ch.blocks[i].local.Zero()
		ch.blocks[i].up.Zero()
		if ch.blocks[i].down != nil {
			ch.blocks[i].down.Zero()
		}
	}
	fillClassBlocks(ch.space, ch.blocks)
	if err := certifyClassProcess(ch.Proc, ch.adoptMaxDensity); err != nil {
		return true, err
	}
	return true, nil
}

// levelLayout describes the reblocking.
type levelLayout struct {
	width int // W: batch bound; 1 = identity layout
	c     int // first physical repeating level (P/g partitions)
	n     int // repeating phase dimension per physical level

	boundaryOff []int // width>1: offset of physical level o < c inside super-level 0
}

// BuildClassChain constructs class p's QBD (reblocked if the class has
// batch arrivals) for the given intervisit distribution, adopting block
// representations at the default CSR density threshold.
func BuildClassChain(m *Model, p int, intervisit *phase.Dist) (*ClassChain, error) {
	return buildClassChain(m, p, intervisit, 0)
}

// buildClassChain is BuildClassChain with an explicit CSR adoption
// threshold (SolveOptions.SparseMaxDensity; non-positive means
// matrix.DefaultAdoptMaxDensity).
func buildClassChain(m *Model, p int, intervisit *phase.Dist, maxDensity float64) (*ClassChain, error) {
	if m.Classes[p].MaxBatch() == 1 {
		proc, sp, lv, err := buildClassProcess(m, p, intervisit, maxDensity)
		if err != nil {
			return nil, err
		}
		return &ClassChain{
			Proc:            proc,
			space:           sp,
			layout:          levelLayout{width: 1, c: sp.servers, n: sp.dim(sp.servers)},
			blocks:          lv,
			adoptMaxDensity: maxDensity,
		}, nil
	}
	return buildBatchedChain(m, p, intervisit, maxDensity)
}

// buildBatchedChain assembles the reblocked process: one boundary
// super-level holding physical levels [0, c), then repeating super-levels
// of W physical levels each. Blocks are harvested from template physical
// levels — the boundary from [0, c), the first-group-specific down block
// from [c, c+W), and the repeating triplet from the generic group
// [c+W, c+2W) — exploiting that the dynamics of every physical level ≥ c
// are identical.
func buildBatchedChain(m *Model, p int, intervisit *phase.Dist, maxDensity float64) (*ClassChain, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if err := validateIntervisit(intervisit); err != nil {
		return nil, err
	}
	sp := newClassSpace(m, p, intervisit)
	w := sp.maxBatch
	c := sp.servers
	n := sp.dim(c)

	ly := levelLayout{width: w, c: c, n: n, boundaryOff: make([]int, c)}
	d0 := 0
	for o := 0; o < c; o++ {
		ly.boundaryOff[o] = d0
		d0 += sp.dim(o)
	}
	dRep := w * n

	local0 := matrix.New(d0, d0)
	up0 := matrix.New(d0, dRep)
	down1 := matrix.New(dRep, d0)
	a0 := matrix.New(dRep, dRep)
	a1 := matrix.New(dRep, dRep)
	a2 := matrix.New(dRep, dRep)

	// place maps a physical (level, state index) to (super-level, column).
	place := func(o, si int) (super, col int) {
		if o < c {
			return 0, ly.boundaryOff[o] + si
		}
		j := (o-c)/w + 1
		r := (o - c) % w
		return j, r*n + si
	}

	// Boundary sources: physical levels [0, c).
	for o := 0; o < c; o++ {
		for si, st := range sp.levels[o] {
			_, row := place(o, si)
			sp.emit(o, st, func(destLevel int, dest classState, rate float64) {
				if rate == 0 {
					return
				}
				dSuper, dCol := place(destLevel, sp.stateIndex(destLevel, dest))
				switch dSuper {
				case 0:
					local0.Add(row, dCol, rate)
				case 1:
					up0.Add(row, dCol, rate)
				default:
					panic(fmt.Sprintf("core: boundary batch jump reaches super-level %d", dSuper))
				}
			})
		}
	}
	// First-group sources [c, c+w): only their transitions into the
	// boundary (physical c → c−1) feed Down[1].
	for r := 0; r < w; r++ {
		o := c + r
		for si, st := range sp.levels[c] {
			row := r*n + si
			sp.emit(o, st, func(destLevel int, dest classState, rate float64) {
				if rate == 0 || destLevel >= c {
					return
				}
				_, dCol := place(destLevel, sp.stateIndex(destLevel, dest))
				down1.Add(row, dCol, rate)
			})
		}
	}
	// Generic repeating group [c+w, c+2w).
	base := c + w
	for r := 0; r < w; r++ {
		o := base + r
		for si, st := range sp.levels[c] {
			row := r*n + si
			sp.emit(o, st, func(destLevel int, dest classState, rate float64) {
				if rate == 0 {
					return
				}
				dSuper, dCol := place(destLevel, sp.stateIndex(destLevel, dest))
				switch dSuper - 2 { // this group is super-level 2
				case -1:
					a2.Add(row, dCol, rate)
				case 0:
					if dCol != row {
						a1.Add(row, dCol, rate)
					}
				case 1:
					a0.Add(row, dCol, rate)
				default:
					panic(fmt.Sprintf("core: repeating batch jump spans %d super-levels", dSuper-2))
				}
			})
		}
	}
	completeDiag(local0, up0, nil)
	// A1 diagonal: total outflow counts A0, A2 and its own off-diagonals.
	for i := 0; i < dRep; i++ {
		var s float64
		for jj := 0; jj < dRep; jj++ {
			s += a1.At(i, jj) + a0.At(i, jj) + a2.At(i, jj)
		}
		a1.Add(i, i, -s)
	}

	proc := &qbd.Process{
		Local: []*matrix.Dense{local0},
		Up:    []*matrix.Dense{up0},
		Down:  []*matrix.Dense{nil, down1},
		A0:    matrix.Op(a0), A1: matrix.Op(a1), A2: matrix.Op(a2),
	}
	if err := certifyClassProcess(proc, maxDensity); err != nil {
		return nil, fmt.Errorf("core: batched chain: %w", err)
	}
	return &ClassChain{Proc: proc, space: sp, layout: ly, adoptMaxDensity: maxDensity}, nil
}

// MeanJobs returns the mean physical job count E[N_p] from the solved
// chain (eq. 37, adapted to the layout).
func (ch *ClassChain) MeanJobs(sol *qbd.Solution) (float64, error) {
	if ch.layout.width == 1 {
		return sol.MeanLevel()
	}
	ly := ch.layout
	w0 := make([]float64, ly.boundaryOff[ly.c-1]+ch.space.dim(ly.c-1))
	for o := 0; o < ly.c; o++ {
		for si := 0; si < ch.space.dim(o); si++ {
			w0[ly.boundaryOff[o]+si] = float64(o)
		}
	}
	repeatBase := make([]float64, ly.width*ly.n)
	for r := 0; r < ly.width; r++ {
		for si := 0; si < ly.n; si++ {
			repeatBase[r*ly.n+si] = float64(ly.c + r)
		}
	}
	return sol.WeightedMean([][]float64{w0}, repeatBase, float64(ly.width)), nil
}

// PhysicalLevel returns the stationary probability vector of the physical
// level o (indexed by the level's state space).
func (ch *ClassChain) PhysicalLevel(sol *qbd.Solution, o int) []float64 {
	var buf []float64
	return ch.physicalLevelTo(&buf, sol, o)
}

// physicalLevelTo is PhysicalLevel through the grow-only scratch *buf:
// the returned vector aliases *buf, and nothing is allocated once *buf
// has grown to the widest QBD level read and sol has memoized the level.
func (ch *ClassChain) physicalLevelTo(buf *[]float64, sol *qbd.Solution, o int) []float64 {
	ly := ch.layout
	if ly.width == 1 {
		return sol.LevelTo(growVec(buf, ch.space.dim(o)), o)
	}
	if o < ly.c {
		v := growVec(buf, ch.space.dim(o))
		copy(v, sol.Boundary[0][ly.boundaryOff[o]:])
		return v
	}
	j := (o-ly.c)/ly.width + 1
	r := (o - ly.c) % ly.width
	v := sol.LevelTo(growVec(buf, ly.width*ly.n), j)
	return v[r*ly.n : (r+1)*ly.n]
}

// PhysicalLevelMass returns P[N_p = o].
func (ch *ClassChain) PhysicalLevelMass(sol *qbd.Solution, o int) float64 {
	return matrix.VecSum(ch.PhysicalLevel(sol, o))
}

// physicalTailBound returns an upper bound on P[N_p ≥ o], used for
// truncation choices.
func (ch *ClassChain) physicalTailBound(sol *qbd.Solution, o int) float64 {
	ly := ch.layout
	if ly.width == 1 {
		return sol.TailProb(o)
	}
	if o < ly.c {
		return 1
	}
	return sol.TailProb((o-ly.c)/ly.width + 1)
}
