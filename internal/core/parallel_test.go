package core

// Parallel-dispatch property tests: whatever SolveOptions.Parallel is,
// a solve must be bit-for-bit the serial answer — measures, effective
// quanta, counters, iteration counts, everything. These run under
// `make ci` with GOMAXPROCS=4 and -race, so they double as the data-race
// proof for the worker group and the per-class workspace arenas.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/certify"
	"repro/internal/certify/faultinject"
	"repro/internal/phase"
)

// parallelTestModel builds an L-class machine with varied PH shapes
// (exponential, Erlang, hyperexponential) and loads spread around the
// stability boundary so some classes may be unstable — the merge path
// must carry those in class order too.
func parallelTestModel(l int, rng *rand.Rand) *Model {
	m := &Model{Processors: 8}
	for p := 0; p < l; p++ {
		lam := 0.15 + 0.5*rng.Float64()
		mu := 1 + rng.Float64()
		var svc *phase.Dist
		switch p % 3 {
		case 0:
			svc = phase.Exponential(mu)
		case 1:
			svc = phase.Erlang(2, mu)
		default:
			svc = phase.HyperExponential(
				[]float64{0.4, 0.6}, []float64{mu * 0.5, mu * 2})
		}
		m.Classes = append(m.Classes, ClassParams{
			Partition: []int{1, 2, 4, 8}[p%4],
			Arrival:   phase.Exponential(lam),
			Service:   svc,
			Quantum:   phase.Exponential(1 / (0.5 + rng.Float64())),
			Overhead:  phase.Exponential(50),
		})
	}
	return m
}

// sameBits fails unless a and b are bitwise-identical floats.
func sameBits(t *testing.T, ctx string, a, b float64) {
	t.Helper()
	if math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("%s: %x != %x (values %g vs %g)",
			ctx, math.Float64bits(a), math.Float64bits(b), a, b)
	}
}

// requireIdenticalResults asserts two Results are bit-for-bit equal in
// every caller-visible field, including the per-class R matrices.
func requireIdenticalResults(t *testing.T, ctx string, serial, par *Result) {
	t.Helper()
	if serial.Iterations != par.Iterations || serial.Converged != par.Converged {
		t.Fatalf("%s: iterations/converged %d/%v vs %d/%v",
			ctx, serial.Iterations, serial.Converged, par.Iterations, par.Converged)
	}
	sameBits(t, ctx+": TotalN", serial.TotalN, par.TotalN)
	sameBits(t, ctx+": MeanCycle", serial.MeanCycle, par.MeanCycle)
	if serial.Counters != par.Counters {
		t.Fatalf("%s: counters %+v vs %+v", ctx, serial.Counters, par.Counters)
	}
	if len(serial.Classes) != len(par.Classes) {
		t.Fatalf("%s: class counts %d vs %d", ctx, len(serial.Classes), len(par.Classes))
	}
	for p := range serial.Classes {
		sc, pc := &serial.Classes[p], &par.Classes[p]
		cctx := fmt.Sprintf("%s: class %d", ctx, p)
		if sc.Stable != pc.Stable {
			t.Fatalf("%s: stable %v vs %v", cctx, sc.Stable, pc.Stable)
		}
		sameBits(t, cctx+": N", sc.N, pc.N)
		sameBits(t, cctx+": T", sc.T, pc.T)
		sameBits(t, cctx+": Rho", sc.Rho, pc.Rho)
		sameBits(t, cctx+": sp(R)", sc.SpectralRadiusR, pc.SpectralRadiusR)
		if sc.Effective != nil || pc.Effective != nil {
			if sc.Effective == nil || pc.Effective == nil {
				t.Fatalf("%s: effective quantum presence differs", cctx)
			}
			sameBits(t, cctx+": atom", sc.Effective.Atom, pc.Effective.Atom)
			for i := range sc.Effective.Moments {
				sameBits(t, fmt.Sprintf("%s: moment %d", cctx, i),
					sc.Effective.Moments[i], pc.Effective.Moments[i])
			}
		}
		if sc.Solution != nil && pc.Solution != nil {
			sr, pr := sc.Solution.R, pc.Solution.R
			for i := 0; i < sr.Rows(); i++ {
				for j := 0; j < sr.Cols(); j++ {
					sameBits(t, fmt.Sprintf("%s: R[%d,%d]", cctx, i, j),
						sr.At(i, j), pr.At(i, j))
				}
			}
		}
	}
}

// TestParallelBitwiseIdenticalSerial is the tentpole property: across
// class counts and dispatch widths (including widths past the class
// count and past GOMAXPROCS), a parallel solve is indistinguishable
// from the serial one.
func TestParallelBitwiseIdenticalSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, l := range []int{2, 4, 8} {
		m := parallelTestModel(l, rng)
		serial, serr := Solve(m, SolveOptions{Parallel: 1})
		widths := []int{0, 2, 4, 16}
		if l == 8 {
			widths = []int{4} // the L=8 solve is the slow one; one width suffices
		}
		for _, par := range widths {
			res, err := Solve(m, SolveOptions{Parallel: par})
			if (serr == nil) != (err == nil) || (serr != nil && serr.Error() != err.Error()) {
				t.Fatalf("L=%d parallel=%d: error %v vs serial %v", l, par, err, serr)
			}
			if serr != nil {
				continue
			}
			requireIdenticalResults(t, fmt.Sprintf("L=%d parallel=%d", l, par), serial, res)
		}
	}
}

// TestParallelSessionRefillIdentical re-runs the property through
// sessions: consecutive Resolves on drifting rates must stay
// bitwise-identical between a serial and a parallel session, proving
// the per-class refill path survives concurrent dispatch.
func TestParallelSessionRefillIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := parallelTestModel(4, rng)
	ss, err := NewSession(SolveOptions{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewSession(SolveOptions{Parallel: 3})
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 3; step++ {
		for p := range m.Classes {
			m.Classes[p].Arrival = phase.Exponential(0.2 + 0.1*float64(step) + 0.02*float64(p))
		}
		rs, errS := ss.Resolve(m)
		rp, errP := sp.Resolve(m)
		if (errS == nil) != (errP == nil) {
			t.Fatalf("step %d: error %v vs %v", step, errS, errP)
		}
		if errS != nil {
			continue
		}
		requireIdenticalResults(t, fmt.Sprintf("step %d", step), rs, rp)
	}
	if cs, cp := ss.Counters(), sp.Counters(); cs != cp || cs.Refills == 0 {
		t.Fatalf("session counters: serial %+v, parallel %+v", cs, cp)
	}
}

// TestParallelClassFaultLowestIndexFails: with the "core.class" fault
// armed for classes 1 and 2, a serial solve stops at class 1 and a
// parallel one finishes every class, yet both report class 1's failure —
// the solve's error does not depend on its dispatch width.
func TestParallelClassFaultLowestIndexFails(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	injected := map[int]error{1: errors.New("class 1 fault"), 2: errors.New("class 2 fault")}
	faultinject.Arm("core.class", func(payload any) error {
		return injected[payload.(int)]
	})
	m := parallelTestModel(4, rand.New(rand.NewSource(11)))
	for _, width := range []int{1, 4} {
		res, err := Solve(m, SolveOptions{Parallel: width})
		var f *certify.Failure
		if res != nil || !errors.As(err, &f) || f.Stage != "core.class[1]" ||
			!errors.Is(err, injected[1]) || errors.Is(err, injected[2]) {
			t.Fatalf("Parallel %d: result %v, error %v; want class 1's failure alone", width, res, err)
		}
	}
}

// TestParallelOptionValidation pins the knob's contract: negatives are
// config errors, 0 and huge widths are legal.
func TestParallelOptionValidation(t *testing.T) {
	if err := (SolveOptions{Parallel: -1}).Validate(); err == nil {
		t.Fatal("Parallel: -1 accepted")
	}
	for _, p := range []int{0, 1, 64} {
		if err := (SolveOptions{Parallel: p}).Validate(); err != nil {
			t.Fatalf("Parallel: %d rejected: %v", p, err)
		}
	}
}
