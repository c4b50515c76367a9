package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/phase"
)

// TestStateIndexMatchesEnumeration pins the index arithmetic to the
// enumeration: every state of every level sits at stateIndex, levels
// above C map onto the repeating space, every emitted destination is a
// state of its level, and states outside a level panic.
func TestStateIndexMatchesEnumeration(t *testing.T) {
	for mA := 1; mA <= 4; mA++ {
		for mB := 1; mB <= 4; mB++ {
			for servers := 1; servers <= 8; servers++ {
				for width := 1; width <= 3; width++ {
					name := fmt.Sprintf("mA=%d/mB=%d/C=%d/W=%d", mA, mB, servers, width)
					checkStateIndex(t, name, indexModel(mA, mB, servers, width))
				}
			}
		}
	}
}

// indexModel is a one-class model with the given arrival and service
// orders, C partitions, batches of up to width jobs, an order-2 quantum
// and an order-2 intervisit.
func indexModel(mA, mB, servers, width int) *Model {
	batch := make([]float64, width)
	for k := range batch {
		batch[k] = 1 / float64(width)
	}
	return &Model{
		Processors: servers,
		Classes: []ClassParams{{
			Partition: 1,
			Arrival:   phase.Erlang(mA, 0.1),
			Service:   phase.HyperExponential(uniform(mB), rates(mB)),
			Quantum:   phase.Erlang(2, 1),
			Overhead:  phase.Erlang(2, 100),
			Batch:     batch,
		}},
	}
}

func uniform(n int) []float64 {
	p := make([]float64, n)
	for i := range p {
		p[i] = 1 / float64(n)
	}
	return p
}

func rates(n int) []float64 {
	r := make([]float64, n)
	for i := range r {
		r[i] = float64(i + 1)
	}
	return r
}

func checkStateIndex(t *testing.T, name string, m *Model) {
	t.Helper()
	sp := newClassSpace(m, 0, phase.Erlang(2, 10))
	c := sp.servers
	for level := 0; level <= c+2; level++ {
		states := sp.levels[min(level, c)]
		for idx, st := range states {
			if got := sp.stateIndex(level, st); got != idx {
				t.Fatalf("%s: level %d state %+v: stateIndex %d, enumerated at %d", name, level, st, got, idx)
			}
			sp.emit(level, st, func(destLevel int, dest classState, rate float64) {
				di := sp.stateIndex(destLevel, dest)
				got := sp.levels[min(destLevel, c)][di]
				if got.a != dest.a || got.k != dest.k || !slices.Equal(got.j, dest.j) {
					t.Fatalf("%s: level %d destination %+v indexed as %+v", name, destLevel, dest, got)
				}
			})
		}
	}

	top := sp.levels[c][0] // (a=0, all C jobs in phase 0, k=0)
	type probe struct {
		level int
		st    classState
	}
	bad := map[string]probe{
		"negative level":       {-1, top},
		"arrival phase":        {c, classState{a: sp.mA, j: top.j, k: 0}},
		"cycle phase":          {c, classState{a: 0, j: top.j, k: sp.mG + sp.nF}},
		"occupancy total":      {c - 1, top},
		"occupancy length":     {c, classState{a: 0, j: append([]int{0}, top.j...), k: 0}},
		"quantum at level 0":   {0, classState{a: 0, j: make([]int, sp.mB), k: 0}},
		"jobs at level 0":      {0, classState{a: 0, j: top.j, k: sp.mG}},
		"intervisit phase cap": {0, classState{a: 0, j: make([]int, sp.mB), k: sp.mG + sp.nF}},
	}
	if sp.mB > 1 {
		neg := make([]int, sp.mB)
		neg[0], neg[sp.mB-1] = -1, c+1
		bad["negative occupancy"] = probe{c, classState{a: 0, j: neg, k: 0}}
	}
	for what, b := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: %s: stateIndex(%d, %+v) did not panic", name, what, b.level, b.st)
				}
			}()
			sp.stateIndex(b.level, b.st)
		}()
	}
}

// TestRefillEmissionAllocatesNothing pins the class-chain stage's
// emission pass on a refilled chain to zero heap allocations: state
// lookup is arithmetic and destination occupancies are written into
// the space's scratch.
func TestRefillEmissionAllocatesNothing(t *testing.T) {
	m := &Model{
		Processors: 4,
		Classes: []ClassParams{{
			Partition: 1,
			Arrival:   phase.HyperExponential([]float64{0.4, 0.6}, []float64{0.5, 2}),
			Service:   phase.Erlang(2, 1),
			Quantum:   phase.Erlang(2, 1),
			Overhead:  phase.Exponential(100),
		}},
	}
	f := HeavyTrafficIntervisit(m, 0)
	ch, err := BuildClassChain(m, 0, f)
	if err != nil {
		t.Fatal(err)
	}
	m.Classes[0].Arrival = phase.HyperExponential([]float64{0.4, 0.6}, []float64{0.6, 2})
	if ok, err := ch.Refill(m, 0, f); !ok || err != nil {
		t.Fatalf("refill: ok=%v err=%v", ok, err)
	}
	if n := testing.AllocsPerRun(20, func() { fillClassBlocks(ch.space, ch.blocks) }); n != 0 {
		t.Fatalf("fillClassBlocks allocates %v times per pass, want 0", n)
	}
}

// TestSessionExtractionScratchBounded walks class 0's arrival rate
// through 80 values on one serial session (one arena for all classes),
// moving the effective-quantum truncation depth across several orders
// while every chain keeps the structures its first solve built (the
// reduced quanta keep their orders below λ ≈ 0.45). The extraction keeps
// one grow-only band LU per class on its chain, so the session arena
// must hold no more buffers after the walk than after the first solve.
func TestSessionExtractionScratchBounded(t *testing.T) {
	s, err := NewSession(SolveOptions{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	model := func(lambda float64) *Model {
		return &Model{Processors: 4, Classes: []ClassParams{
			{Partition: 2, Arrival: phase.Exponential(lambda), Service: phase.Exponential(1),
				Quantum: phase.Exponential(1), Overhead: phase.Exponential(100)},
			{Partition: 4, Arrival: phase.Exponential(0.25), Service: phase.Exponential(1),
				Quantum: phase.Exponential(1), Overhead: phase.Exponential(100)},
		}}
	}
	if _, err := s.Resolve(model(0.05)); err != nil {
		t.Fatal(err)
	}
	mats, vecs, lus := s.ws.Held()
	orders := map[int]bool{}
	for i := 1; i < 80; i++ {
		lambda := 0.05 + 0.0045*float64(i)
		if _, err := s.Resolve(model(lambda)); err != nil {
			t.Fatalf("lambda %g: %v", lambda, err)
		}
		for p, st := range s.classes {
			if st.chain.quantum.band == nil {
				t.Fatalf("lambda %g: class %d keeps no extraction scratch on its chain", lambda, p)
			}
		}
		orders[len(s.classes[0].chain.quantum.init)] = true
	}
	if len(orders) < 8 {
		t.Fatalf("walk reached only %d truncation orders; it no longer exercises the bound", len(orders))
	}
	if m2, v2, l2 := s.ws.Held(); m2 > mats || v2 > vecs || l2 > lus {
		t.Fatalf("session arena grew over the walk: (mats, vecs, LUs) %d,%d,%d -> %d,%d,%d",
			mats, vecs, lus, m2, v2, l2)
	}
}
