package sweep

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/certify"
	"repro/internal/certify/faultinject"
	"repro/internal/core"
)

// TestConfigErrorTypedNotRetried (satellite): a trial whose scenario
// cannot even build a model must fail as a config error from its one
// attempt — not report converged=true, not run again.
func TestConfigErrorTypedNotRetried(t *testing.T) {
	bad := testSpec().Base
	bad.Classes[0].Lambda = -1
	orig := execute
	defer func() { execute = orig }()
	calls := 0
	execute = func(tr Trial, pol ExecPolicy, ses *core.Session) (Outcome, error) {
		calls++
		return orig(tr, pol, ses)
	}
	trials := []Trial{{Scenario: bad, Method: MethodAnalytic}}
	run, err := RunTrials(context.Background(), trials, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := run.Results[0]
	if r.Status != StatusError || r.Err == "" {
		t.Fatalf("bad scenario → %+v, want error status", r)
	}
	if calls != 1 {
		t.Fatalf("config error ran %d attempts, want 1", calls)
	}
	if r.Kind != "config" {
		t.Fatalf("kind %q, want config", r.Kind)
	}
	if run.Manifest.PerTrial[0].Kind != "config" {
		t.Fatalf("manifest kind %q, want config", run.Manifest.PerTrial[0].Kind)
	}
}

// TestUnknownMethodTyped (satellite): an unknown method is a config
// error, distinguishable from numeric failure.
func TestUnknownMethodTyped(t *testing.T) {
	trials := []Trial{{Scenario: testSpec().Base, Method: "bogus"}}
	run, err := RunTrials(context.Background(), trials, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := run.Results[0]
	if r.Status != StatusError || r.Kind != "config" {
		t.Fatalf("unknown method → %+v (kind %q)", r, r.Kind)
	}
}

// TestInjectedNonConvergenceIsFinal: a typed ErrNotConverged from the
// solver fails the trial on its one attempt — kind not-converged, no
// values, nothing cached — and a re-run over the same cache solves it
// afresh.
func TestInjectedNonConvergenceIsFinal(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	faultinject.ArmOnce("core.result", func(any) error {
		return &certify.Failure{Kind: certify.ErrNotConverged, Stage: "test.inject"}
	})
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	trials := []Trial{{Scenario: testSpec().Base, Method: MethodAnalytic}}
	run, err := RunTrials(context.Background(), trials, Options{Workers: 1, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	r := run.Results[0]
	if r.Status != StatusError || r.Kind != "not-converged" || r.Values != nil {
		t.Fatalf("injected non-convergence → %+v, want a not-converged error without values", r)
	}
	if pt := run.Manifest.PerTrial[0]; pt.Status != StatusError || pt.Kind != "not-converged" || run.Manifest.Errors != 1 {
		t.Fatalf("manifest %+v, per-trial %+v", run.Manifest, pt)
	}
	if cache.Len() != 0 {
		t.Fatalf("failed trial cached: %d records", cache.Len())
	}
	run, err = RunTrials(context.Background(), trials, Options{Workers: 1, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if r := run.Results[0]; r.Status != StatusOK || r.Values["N0"] <= 0 {
		t.Fatalf("re-run after the fault → %+v, want a fresh ok solve", r)
	}
}

// degradeTrial is an analytic trial with a short simulation window for
// the fallback tests.
func degradeTrial() Trial {
	return Trial{
		Scenario: testSpec().Base,
		Method:   MethodAnalytic,
		Sim:      SimParams{Warmup: 200, Horizon: 5000},
	}
}

// TestDegradedFallbackToSimulation: with AllowDegraded, a class whose
// analytic solve fails non-retryably falls back to simulation; the result
// is flagged degraded, counted in the manifest, and never cached.
func TestDegradedFallbackToSimulation(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	faultinject.Arm("core.class", func(p any) error {
		if p.(int) == 0 {
			return errors.New("injected numeric failure")
		}
		return nil
	})
	dir := t.TempDir()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	run, err := RunTrials(context.Background(), []Trial{degradeTrial()},
		Options{Workers: 1, AllowDegraded: true, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	r := run.Results[0]
	if r.Status != StatusDegraded || !r.Degraded {
		t.Fatalf("status %q degraded=%v, want degraded", r.Status, r.Degraded)
	}
	if r.Values["N0"] <= 0 {
		t.Fatalf("degraded class value N0 = %g, want simulated mean > 0", r.Values["N0"])
	}
	if r.Values["N1"] <= 0 {
		t.Fatalf("healthy class value N1 = %g, want analytic mean > 0", r.Values["N1"])
	}
	if run.Manifest.Degraded != 1 || run.Manifest.Errors != 0 {
		t.Fatalf("manifest: %+v", run.Manifest)
	}
	if cache.Len() != 0 {
		t.Fatalf("degraded result cached (%d entries)", cache.Len())
	}
	// The artifact row carries the degraded flag.
	jsonl, err := run.ResultsJSONL()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(jsonl), `"degraded":true`) {
		t.Fatalf("artifact missing degraded flag: %s", jsonl)
	}
}

// TestStrictRefusesDegradation: -strict turns the same injected failure
// into a hard typed error.
func TestStrictRefusesDegradation(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	faultinject.Arm("core.class", func(p any) error {
		if p.(int) == 0 {
			return errors.New("injected numeric failure")
		}
		return nil
	})
	run, err := RunTrials(context.Background(), []Trial{degradeTrial()},
		Options{Workers: 1, Strict: true, AllowDegraded: true})
	if err != nil {
		t.Fatal(err)
	}
	r := run.Results[0]
	if r.Status != StatusError {
		t.Fatalf("strict mode produced %q, want error", r.Status)
	}
	if r.Kind != "numeric" {
		t.Fatalf("kind %q, want numeric", r.Kind)
	}
	if run.Manifest.Errors != 1 || run.Manifest.Degraded != 0 {
		t.Fatalf("manifest: %+v", run.Manifest)
	}
}

// TestWithoutAllowDegradedErrors: the default (no -allow-degraded) also
// refuses the simulation fallback.
func TestWithoutAllowDegradedErrors(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	faultinject.Arm("core.class", func(p any) error {
		if p.(int) == 0 {
			return errors.New("injected numeric failure")
		}
		return nil
	})
	run, err := RunTrials(context.Background(), []Trial{degradeTrial()}, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if run.Results[0].Status != StatusError {
		t.Fatalf("default mode produced %q, want error", run.Results[0].Status)
	}
}

// TestValueGuardRejectsNaN: a NaN that escapes every upstream check is
// stopped at the runner's last gate and typed as contamination.
func TestValueGuardRejectsNaN(t *testing.T) {
	orig := execute
	defer func() { execute = orig }()
	execute = func(tr Trial, pol ExecPolicy, ses *core.Session) (Outcome, error) {
		return Outcome{Values: map[string]float64{"v": math.NaN()}, Converged: true}, nil
	}
	run, err := RunTrials(context.Background(),
		[]Trial{{Scenario: testSpec().Base, Method: MethodAnalytic}}, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := run.Results[0]
	if r.Status != StatusError || r.Kind != "numeric" {
		t.Fatalf("NaN value → %+v (kind %q), want numeric error", r, r.Kind)
	}
	if len(r.Values) != 0 {
		t.Fatalf("contaminated values leaked into the result: %v", r.Values)
	}
}

// TestWorkerKilledMidTrial: a panic injected at the value gate (the last
// moment of a trial) is isolated to its trial; siblings and the cache
// survive.
func TestWorkerKilledMidTrial(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	orig := execute
	defer func() { execute = orig }()
	execute = func(tr Trial, pol ExecPolicy, ses *core.Session) (Outcome, error) {
		return Outcome{Values: map[string]float64{"i": tr.Point["i"]}, Converged: true}, nil
	}
	faultinject.Arm("sweep.values", func(p any) error {
		if p.(map[string]float64)["i"] == 1 {
			panic("worker killed mid-trial")
		}
		return nil
	})
	dir := t.TempDir()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Distinct scenarios, so each trial has its own cache key.
	var trials []Trial
	for i := 0; i < 3; i++ {
		sc := testSpec().Base
		sc.Classes[0].Lambda = 0.3 + 0.1*float64(i)
		trials = append(trials, Trial{
			Scenario: sc, Method: MethodAnalytic,
			Point: map[string]float64{"i": float64(i)},
		})
	}
	run, err := RunTrials(context.Background(), trials, Options{Workers: 2, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if run.Results[1].Status != StatusPanic {
		t.Fatalf("killed trial → %q, want panic", run.Results[1].Status)
	}
	if run.Results[0].Status != StatusOK || run.Results[2].Status != StatusOK {
		t.Fatal("kill poisoned sibling trials")
	}
	if err := cache.Close(); err != nil {
		t.Fatal(err)
	}
	// The cache file survives the mid-trial kill and reopens cleanly with
	// exactly the healthy trials.
	reopened, err := OpenCache(dir)
	if err != nil {
		t.Fatalf("cache corrupted by kill: %v", err)
	}
	defer reopened.Close()
	if reopened.Len() != 2 {
		t.Fatalf("reopened cache has %d entries, want 2", reopened.Len())
	}
}

// TestPanicReplacesWorkerSession: a panic mid-solve may leave the
// worker's session torn, so the worker replaces it. The trial after the
// panic builds its chains afresh instead of refilling the torn ones, and
// its values equal a clean run's bit for bit.
func TestPanicReplacesWorkerSession(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	// One class, so a same-structure resolve refills every chain.
	var trials []Trial
	for i := 0; i < 3; i++ {
		sc := Scenario{Processors: 2, Classes: []ClassSpec{{
			Partition: 1, Lambda: 0.3 + 0.1*float64(i), Mu: 1, QuantumMean: 1, OverheadMean: 0.01,
		}}}
		trials = append(trials, Trial{Scenario: sc, Method: MethodAnalytic})
	}
	clean, err := RunTrials(context.Background(), trials, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if c := clean.Results[2].Counters; c.Builds != 0 || c.Refills == 0 {
		t.Fatalf("clean run: third trial should refill the session's chains: %+v", c)
	}
	opts := Options{Workers: 1, Progress: func(done, _ int, _ TrialResult) {
		if done == 1 {
			// The second trial panics in its first R iteration, after its
			// chains were refilled.
			faultinject.ArmOnce("qbd.iter", func(any) error { panic("injected mid-solve panic") })
		}
	}}
	run, err := RunTrials(context.Background(), trials, opts)
	if err != nil {
		t.Fatal(err)
	}
	if run.Results[1].Status != StatusPanic {
		t.Fatalf("second trial → %q, want panic", run.Results[1].Status)
	}
	r := run.Results[2]
	if r.Status != StatusOK || r.Counters.Builds == 0 {
		t.Fatalf("trial after the panic ran on the old session: %q %+v", r.Status, r.Counters)
	}
	if !reflect.DeepEqual(r.Values, clean.Results[2].Values) {
		t.Fatalf("values after the panic %v, clean run %v", r.Values, clean.Results[2].Values)
	}
}

// TestArtifactsSanitizeNonFinite (satellite): even a hand-built result
// holding NaN/Inf values produces artifacts with no NaN tokens — the
// values are dropped and noted.
func TestArtifactsSanitizeNonFinite(t *testing.T) {
	run := &Run{Results: []TrialResult{{
		Index: 0, Method: MethodAnalytic,
		Values: map[string]float64{"good": 1.5, "bad": math.NaN(), "worse": math.Inf(1)},
	}}}
	jsonl, err := run.ResultsJSONL()
	if err != nil {
		t.Fatalf("JSONL failed on non-finite values: %v", err)
	}
	s := string(jsonl)
	if strings.Contains(s, "NaN") || strings.Contains(s, "Inf") {
		t.Fatalf("artifact contains non-finite token: %s", s)
	}
	if !strings.Contains(s, `"good":1.5`) {
		t.Fatalf("finite value lost: %s", s)
	}
	if !strings.Contains(s, "non-finite values dropped: bad worse") {
		t.Fatalf("drop note missing: %s", s)
	}
	csv := run.ResultsCSV()
	if strings.Contains(csv, "NaN") || strings.Contains(csv, "Inf") {
		t.Fatalf("csv contains non-finite token: %s", csv)
	}
	// The original in-memory result is untouched.
	if !math.IsNaN(run.Results[0].Values["bad"]) {
		t.Fatal("sanitizer mutated the run in place")
	}
}
