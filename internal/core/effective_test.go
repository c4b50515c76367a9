package core

import (
	"runtime"
	"testing"

	"repro/internal/phase"
)

// saturatedClass solves a near-saturated single class whose
// effective-quantum truncation runs to the cap.
func saturatedClass(t *testing.T, truncationCap int) (*ClassResult, SolveOptions) {
	t.Helper()
	m := &Model{Processors: 4, Classes: []ClassParams{
		{Partition: 4, Arrival: phase.Exponential(0.97), Service: phase.Exponential(1),
			Quantum: phase.Erlang(2, 1), Overhead: phase.Exponential(100)},
	}}
	opts := SolveOptions{TruncationCap: truncationCap}.withDefaults()
	res, err := Solve(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	cr := &res.Classes[0]
	if !cr.Stable {
		t.Fatal("class unstable")
	}
	return cr, opts
}

// TestExtractionMemoryLinearInTruncation extracts the effective quantum
// of a near-saturated class truncated at 1000 levels into fresh scratch:
// its allocation must stay linear in the nt service states, below the
// nt² bytes a dense nt×nt subgenerator (8·nt² bytes) would exceed.
func TestExtractionMemoryLinearInTruncation(t *testing.T) {
	cr, opts := saturatedClass(t, 1000)
	ch := cr.chain
	ch.quantum = quantumScratch{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := ExtractEffectiveQuantum(ch, cr.Solution, opts.TailEps, opts.TruncationCap); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	nt := len(ch.quantum.init)
	sp := ch.space
	if full := sp.serviceOffset(sp.servers + opts.TruncationCap + 1); nt != full {
		t.Fatalf("truncation stopped at %d service states, short of the cap's %d: the class is not saturated enough", nt, full)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= uint64(nt*nt) {
		t.Fatalf("one extraction at nt=%d allocated %d bytes, want < nt² = %d", nt, got, nt*nt)
	}
}

// TestRepeatedExtractionAllocatesOnlyResult pins a repeat extraction from
// one chain and solution — scratch grown, stationary levels memoized —
// at a single allocation: the returned EffectiveQuantum.
func TestRepeatedExtractionAllocatesOnlyResult(t *testing.T) {
	cr, opts := saturatedClass(t, 300)
	extract := func() {
		if _, err := ExtractEffectiveQuantum(cr.chain, cr.Solution, opts.TailEps, opts.TruncationCap); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(5, extract); n != 1 {
		t.Fatalf("repeat extraction: %v allocs/op, want 1", n)
	}
}
