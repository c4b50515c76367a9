package core

import (
	"sync"
	"testing"

	"repro/internal/phase"
)

// TestAtomicCountersAccumulate pins Add/Snapshot totals against the
// plain Counters accumulator on the same deltas.
func TestAtomicCountersAccumulate(t *testing.T) {
	deltas := []Counters{
		{Builds: 2, Solves: 3, RIterations: 17},
		{Refills: 5, Solves: 4},
		{Builds: 1, RIterations: 9},
	}
	var want Counters
	var a AtomicCounters
	for _, d := range deltas {
		want.Add(d)
		a.Add(d)
	}
	if got := a.Snapshot(); got != want {
		t.Fatalf("Snapshot = %+v, want %+v", got, want)
	}
}

// TestAtomicCountersConcurrent hammers Add and Snapshot from many
// goroutines; under -race this is the data-race proof for the /metrics
// scrape path, and the final total checks no delta was lost.
func TestAtomicCountersConcurrent(t *testing.T) {
	var a AtomicCounters
	const writers, perWriter = 8, 500
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					c := a.Snapshot()
					if c.Solves < 0 || c.RIterations < 0 {
						t.Error("negative snapshot")
						return
					}
				}
			}
		}()
	}
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func() {
			defer ww.Done()
			for i := 0; i < perWriter; i++ {
				a.Add(Counters{Solves: 1, RIterations: 2, Builds: 1})
			}
		}()
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	got := a.Snapshot()
	if got.Solves != writers*perWriter || got.RIterations != 2*writers*perWriter {
		t.Fatalf("lost updates: %+v", got)
	}
}

// TestSessionCountersScrapeDuringSolve scrapes a live session's counters
// from other goroutines while it solves — the exact shape of a /metrics
// scrape hitting a gangserved shard mid-request. Run under -race by
// make ci.
func TestSessionCountersScrapeDuringSolve(t *testing.T) {
	ses, err := NewSession(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := &Model{
		Processors: 2,
		Classes: []ClassParams{{
			Partition: 1,
			Arrival:   phase.Exponential(0.4),
			Service:   phase.Exponential(1),
			Quantum:   phase.Exponential(1),
			Overhead:  phase.Exponential(100),
		}},
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = ses.Counters()
				}
			}
		}()
	}
	for i := 0; i < 5; i++ {
		if _, err := ses.Resolve(m); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if c := ses.Counters(); c.Solves == 0 {
		t.Fatalf("no solves counted: %+v", c)
	}
}
