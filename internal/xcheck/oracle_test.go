package xcheck

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/certify"
	"repro/internal/certify/faultinject"
	"repro/internal/core"
	"repro/internal/sweep"
)

// cheapCase is a hand-built all-exponential single-class scenario: the
// decomposition is near-exact there, both engines run in well under a
// second, and the asymmetric band is at its tightest — the right probe
// for "does the oracle catch an injected model bug".
func cheapCase() Case {
	sc := sweep.Scenario{
		Processors: 2,
		Classes: []sweep.ClassSpec{
			{Partition: 1, Lambda: 1.2, Mu: 1, QuantumMean: 1, OverheadMean: 0.01},
		},
	}
	return Case{Index: 0, ID: sc.Key(), Seed: 42, Scenario: sc, TargetRho: 0.6}
}

// cheapParams shrinks the simulation window: the tests below only need
// CIs good enough to separate "agrees" from "inflated 2.5×".
func cheapParams() Params {
	p := DefaultParams()
	p.TargetJobs = 6000
	return p
}

func TestCheckCaseAgrees(t *testing.T) {
	cr := CheckCase(cheapCase(), cheapParams())
	if cr.Status != CaseAgree {
		t.Fatalf("status %s, want agree; checks: %+v, err: %s", cr.Status, cr.Failed(), cr.Err)
	}
	if err := cr.Disagreement(); err != nil {
		t.Fatalf("Disagreement() = %v on an agreeing case", err)
	}
	var okChecks int
	for _, ck := range cr.Checks {
		if ck.Status == StatusOK {
			okChecks++
		}
	}
	if okChecks < 5 {
		t.Fatalf("only %d applicable checks on a stable case: %+v", okChecks, cr.Checks)
	}
}

// TestInjectedBugCaught is the oracle's own acceptance test: a model bug
// injected at the core.result fault point — every population inflated
// 2.5×, exactly what a broken generator build would do while still
// certifying cleanly — must be flagged as a disagreement, produce a
// triage artifact that replays to the same verdict while the bug is
// live, and replay green once the bug is removed.
func TestInjectedBugCaught(t *testing.T) {
	inflate := func(payload any) error {
		res, ok := payload.(*core.Result)
		if !ok {
			t.Errorf("core.result payload is %T, want *core.Result", payload)
			return nil
		}
		res.TotalN = 0
		for p := range res.Classes {
			if res.Classes[p].Stable {
				res.Classes[p].N *= 2.5
				res.TotalN += res.Classes[p].N
			}
		}
		return nil
	}
	// Arm (not ArmOnce): the oracle re-solves metamorphic variants, and a
	// real model bug would be present in every solve alike.
	faultinject.Arm("core.result", inflate)
	defer faultinject.Reset()

	c, params := cheapCase(), cheapParams()
	cr := CheckCase(c, params)
	if cr.Status != CaseDisagree {
		t.Fatalf("status %s, want disagree (injected 2.5× population inflation)", cr.Status)
	}
	failedN := false
	for _, ck := range cr.Failed() {
		if ck.Name == "N" {
			failedN = true
		}
	}
	if !failedN {
		t.Fatalf("N band did not catch the inflation; failed checks: %+v", cr.Failed())
	}
	err := cr.Disagreement()
	if !errors.Is(err, certify.ErrDisagreement) {
		t.Fatalf("Disagreement() = %v, want certify.ErrDisagreement", err)
	}

	// The triage artifact round-trips and replays to the same verdict
	// while the bug is live.
	dir := t.TempDir()
	path, werr := WriteTriage(dir, cr, params)
	if werr != nil {
		t.Fatal(werr)
	}
	tri, lerr := LoadTriage(path)
	if lerr != nil {
		t.Fatal(lerr)
	}
	if tri.Case.Status != CaseDisagree || tri.Replay == "" {
		t.Fatalf("triage artifact incomplete: status=%s replay=%q", tri.Case.Status, tri.Replay)
	}
	replayed := tri.Rerun()
	if replayed.Status != CaseDisagree {
		t.Fatalf("replay status %s, want disagree while the bug is armed", replayed.Status)
	}

	// Remove the bug: the same artifact replays green.
	faultinject.Reset()
	fixed := tri.Rerun()
	if fixed.Status != CaseAgree {
		t.Fatalf("replay status %s after disarming, want agree; checks: %+v", fixed.Status, fixed.Failed())
	}
}

// TestRunPoolDeterministic: the report is a pure function of
// (cases, params) — the worker count is scheduling only. Also the pool's
// race-detector coverage.
func TestRunPoolDeterministic(t *testing.T) {
	base := cheapCase()
	var cases []Case
	for i, lam := range []float64{0.4, 0.9, 1.4} {
		c := base
		c.Index = i
		c.Seed = int64(100 + i)
		c.Scenario = cloneScenario(base.Scenario)
		c.Scenario.Classes[0].Lambda = lam
		c.ID = c.Scenario.Key()
		cases = append(cases, c)
	}
	params := cheapParams()
	params.TargetJobs = 3000

	rep1, full1 := Run(cases, params, 1, nil)
	rep3, full3 := Run(cases, params, 3, nil)
	if !reflect.DeepEqual(rep1, rep3) {
		t.Fatal("report differs between 1 and 3 workers")
	}
	if !reflect.DeepEqual(full1, full3) {
		t.Fatal("full case reports differ between 1 and 3 workers")
	}
	if rep1.Agree != len(cases) {
		t.Fatalf("agree=%d of %d; cases: %+v", rep1.Agree, len(cases), rep1.Cases)
	}
}

// TestCorpusCase105IsTrueFixedPoint pins corpus case 105 (L = 2, class 1
// unstable under the heavy-traffic start) to the fixed point the plain
// iteration reaches: total N 4.991. An Aitken-accelerated iteration once
// stopped it after 4 rounds at 8.978, because a class whose round-2
// input repeated round 1 fed its round-1 quantum back and the next round
// repeated every N.
func TestCorpusCase105IsTrueFixedPoint(t *testing.T) {
	c := Generate(1996, 106)[105]
	m, err := c.Scenario.Model()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Solve(m, core.SolveOptions{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || !(res.FixedPointResidual < 1e-6) {
		t.Fatalf("converged %v after %d rounds, residual %g", res.Converged, res.Iterations, res.FixedPointResidual)
	}
	if math.Abs(res.TotalN-4.991) > 1e-3 {
		t.Fatalf("total N %v after %d rounds, want 4.991", res.TotalN, res.Iterations)
	}
}

// TestCheckCaseRejectsUnconverged: a fixed point that ran out of budget
// is an analytic engine error, not an answer to hold against the
// simulator.
func TestCheckCaseRejectsUnconverged(t *testing.T) {
	c := Generate(1996, 106)[105]
	p := cheapParams()
	p.Solve.MaxIterations = 2
	cr := CheckCase(c, p)
	if cr.Status != CaseError || cr.ErrKind != "not-converged" {
		t.Fatalf("two-round case: status %q kind %q (%s), want a not-converged error", cr.Status, cr.ErrKind, cr.Err)
	}
}
