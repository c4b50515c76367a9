package sweep

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

func intp(v int) *int { return &v }

func testSpec() *Spec {
	return &Spec{
		Name: "test",
		Base: Scenario{Processors: 4, Classes: []ClassSpec{
			{Partition: 2, Lambda: 0.5, Mu: 1, QuantumMean: 1, OverheadMean: 0.01},
			{Partition: 4, Lambda: 0.25, Mu: 1, QuantumMean: 1, OverheadMean: 0.01},
		}},
		Axes: []Axis{
			{Param: "lambda", Values: []float64{0.3, 0.5}},
			{Param: "quantum", Values: []float64{0.5, 1, 2}},
		},
		Methods: []Method{MethodAnalytic},
	}
}

func TestExpandGrid(t *testing.T) {
	s := testSpec()
	s.Methods = []Method{MethodAnalytic, MethodSim}
	s.Seed = 7
	trials, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(trials) != 2*3*2 {
		t.Fatalf("%d trials, want 12", len(trials))
	}
	// First axis slowest, method fastest.
	first := trials[0]
	if first.Method != MethodAnalytic || first.Point["lambda"] != 0.3 || first.Point["quantum"] != 0.5 {
		t.Fatalf("unexpected first trial: %+v", first)
	}
	if trials[1].Method != MethodSim || trials[1].Seed != 7 {
		t.Fatalf("sim trial missing seed: %+v", trials[1])
	}
	if trials[0].Seed != 0 {
		t.Fatalf("analytic trial carries a seed: %+v", trials[0])
	}
	last := trials[len(trials)-1]
	if last.Point["lambda"] != 0.5 || last.Point["quantum"] != 2 {
		t.Fatalf("unexpected last trial point: %v", last.Point)
	}
	// The axis value actually lands in the scenario.
	if got := last.Scenario.Classes[0].QuantumMean; got != 2 {
		t.Fatalf("quantum not applied: %g", got)
	}
	if got := last.Scenario.Classes[1].Lambda; got != 0.5 {
		t.Fatalf("lambda not applied to all classes: %g", got)
	}
}

func TestExpandPerClassAxis(t *testing.T) {
	s := testSpec()
	s.Axes = []Axis{{Param: "mu", Class: intp(1), Values: []float64{2, 4}}}
	trials, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(trials) != 2 {
		t.Fatalf("%d trials, want 2", len(trials))
	}
	if trials[0].Scenario.Classes[0].Mu != 1 || trials[0].Scenario.Classes[1].Mu != 2 {
		t.Fatalf("per-class axis leaked: %+v", trials[0].Scenario)
	}
	if _, ok := trials[0].Point["mu[1]"]; !ok {
		t.Fatalf("per-class point label missing: %v", trials[0].Point)
	}
}

func TestSpecValidate(t *testing.T) {
	s := testSpec()
	s.Axes[0].Param = "bogus"
	if _, err := s.Expand(); err == nil {
		t.Fatal("bad axis param accepted")
	}
	s = testSpec()
	s.Axes[0].Class = intp(5)
	if _, err := s.Expand(); err == nil {
		t.Fatal("out-of-range axis class accepted")
	}
	s = testSpec()
	s.Methods = []Method{"nope"}
	if err := s.Validate(); err == nil {
		t.Fatal("unknown method accepted")
	}
}

func TestTrialKeyCanonicalization(t *testing.T) {
	s := testSpec()
	trials, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	a := trials[0]
	b := a
	b.Point = map[string]float64{"renamed": 1}
	b.Seed = 42                     // irrelevant to analytic trials
	b.Sim = SimParams{Horizon: 1e6} // likewise
	if a.Key() != b.Key() {
		t.Fatal("analytic key depends on labels/seed/sim params")
	}
	c := a
	c.Scenario = a.Scenario.clone()
	c.Scenario.Classes[0].Lambda = 0.9999
	if a.Key() == c.Key() {
		t.Fatal("key ignores scenario parameters")
	}
	d := a
	d.Method = MethodSim
	if a.Key() == d.Key() {
		t.Fatal("key ignores method")
	}
	e := d
	e.Seed = 42
	if d.Key() == e.Key() {
		t.Fatal("sim key ignores seed")
	}
}

func TestRunMatchesDirectSolve(t *testing.T) {
	s := testSpec()
	s.Axes = nil
	run, err := Execute(context.Background(), s, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Results) != 1 {
		t.Fatalf("%d results, want 1", len(run.Results))
	}
	r := run.Results[0]
	if r.Status != StatusOK || r.Err != "" {
		t.Fatalf("trial failed: %+v", r)
	}
	m, err := s.Base.Model()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Solve(m, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r.Values["N0"], res.Classes[0].N; math.Abs(got-want) > 1e-12 {
		t.Fatalf("harness N0 %g != direct %g", got, want)
	}
	if run.Manifest.Executed != 1 || run.Manifest.CacheHits != 0 {
		t.Fatalf("manifest bookkeeping wrong: %+v", run.Manifest)
	}
	if run.Manifest.SpecHash == "" {
		t.Fatal("spec hash missing from manifest")
	}
}

// TestDeterminismAcrossWorkers is the parallelism-determinism contract:
// a sweep run with Workers:1 and with a multi-worker pool must produce
// byte-identical result artifacts for the same spec and seed.
func TestDeterminismAcrossWorkers(t *testing.T) {
	s := testSpec()
	s.Methods = []Method{MethodAnalytic, MethodSim}
	s.Seed = 1996
	s.Sim = SimParams{Warmup: 200, Horizon: 5e3}

	var artifacts [][]byte
	for _, workers := range []int{1, 4} {
		run, err := Execute(context.Background(), s, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		data, err := run.ResultsJSONL()
		if err != nil {
			t.Fatal(err)
		}
		artifacts = append(artifacts, data)
		csv := run.ResultsCSV()
		artifacts = append(artifacts, []byte(csv))
	}
	if !bytes.Equal(artifacts[0], artifacts[2]) {
		t.Fatal("results.jsonl differs between Workers:1 and Workers:4")
	}
	if !bytes.Equal(artifacts[1], artifacts[3]) {
		t.Fatal("results.csv differs between Workers:1 and Workers:4")
	}
}

// TestDeterminismAcrossSolveParallel is the per-class-parallelism
// determinism contract: the cold 64-trial grid with SolveParallel: 4
// (concurrent per-class dispatch inside every analytic solve) must
// produce byte-identical artifacts to the serial-solve run, and the
// knob must never leak into the trial content hashes that key the
// cache.
func TestDeterminismAcrossSolveParallel(t *testing.T) {
	s := benchSpec() // the 64-trial analytic grid

	var artifacts [][]byte
	var keys [][]string
	for _, solvePar := range []int{1, 4} {
		run, err := Execute(context.Background(), s, Options{Workers: 2, SolveParallel: solvePar})
		if err != nil {
			t.Fatal(err)
		}
		data, err := run.ResultsJSONL()
		if err != nil {
			t.Fatal(err)
		}
		artifacts = append(artifacts, data, []byte(run.ResultsCSV()))

		trials, err := s.Expand()
		if err != nil {
			t.Fatal(err)
		}
		ks := make([]string, len(trials))
		for i := range trials {
			ks[i] = trials[i].Key()
		}
		keys = append(keys, ks)
	}
	if !bytes.Equal(artifacts[0], artifacts[2]) {
		t.Fatal("results.jsonl differs between SolveParallel:1 and SolveParallel:4")
	}
	if !bytes.Equal(artifacts[1], artifacts[3]) {
		t.Fatal("results.csv differs between SolveParallel:1 and SolveParallel:4")
	}
	for i := range keys[0] {
		if keys[0][i] != keys[1][i] {
			t.Fatalf("trial %d content hash changed with SolveParallel (cache keys must not see the knob)", i)
		}
	}
}

// TestWarmCacheSkipsSolver is the incremental-rerun contract: a repeat
// run against a warm cache is 100% cache hits, performs zero analytic
// solver calls, and reproduces the artifact byte-for-byte.
func TestWarmCacheSkipsSolver(t *testing.T) {
	dir := t.TempDir()
	s := testSpec()

	cold, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	run1, err := Execute(context.Background(), s, Options{Cache: cold, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.Close(); err != nil {
		t.Fatal(err)
	}
	if run1.Manifest.Executed != 6 || run1.Manifest.CacheHits != 0 {
		t.Fatalf("cold run bookkeeping: %+v", run1.Manifest)
	}

	warm, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	if warm.Len() != 6 {
		t.Fatalf("reloaded cache has %d entries, want 6", warm.Len())
	}
	run2, err := Execute(context.Background(), s, Options{Cache: warm, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// A fully cached run does no analytic work: the manifest omits the
	// pipeline counters entirely (they would be all zero).
	if run2.Manifest.Pipeline != nil {
		t.Fatalf("warm run reports pipeline work %+v, want none", *run2.Manifest.Pipeline)
	}
	if run2.Manifest.Executed != 0 || run2.Manifest.CacheHits != 6 || run2.Manifest.CacheHitRate != 1 {
		t.Fatalf("warm run bookkeeping: %+v", run2.Manifest)
	}
	a1, _ := run1.ResultsJSONL()
	a2, _ := run2.ResultsJSONL()
	if !bytes.Equal(a1, a2) {
		t.Fatal("warm-cache artifact differs from cold run")
	}
}

func TestCacheSurvivesCorruptTail(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("k1", map[string]float64{"v": 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, CacheFile)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"key":"k2","val`) // torn write
	f.Close()

	c2, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, ok := c2.Get("k1"); !ok {
		t.Fatal("intact record lost")
	}
	if _, ok := c2.Get("k2"); ok {
		t.Fatal("torn record resurrected")
	}
}

func TestPanicIsolation(t *testing.T) {
	orig := execute
	defer func() { execute = orig }()
	execute = func(tr Trial, pol ExecPolicy, ses *core.Session) (Outcome, error) {
		if tr.Point["i"] == 1 {
			panic("boom")
		}
		return Outcome{Values: map[string]float64{"v": tr.Point["i"]}, Converged: true}, nil
	}
	trials := []Trial{
		{Scenario: testSpec().Base, Method: MethodAnalytic, Point: map[string]float64{"i": 0}},
		{Scenario: testSpec().Base, Method: MethodAnalytic, Point: map[string]float64{"i": 1}},
		{Scenario: testSpec().Base, Method: MethodAnalytic, Point: map[string]float64{"i": 2}},
	}
	run, err := RunTrials(context.Background(), trials, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if run.Results[1].Status != StatusPanic || run.Results[1].Err == "" {
		t.Fatalf("panic not isolated: %+v", run.Results[1])
	}
	if run.Results[0].Status != StatusOK || run.Results[2].Status != StatusOK {
		t.Fatal("panic poisoned sibling trials")
	}
	if run.Manifest.Panics != 1 {
		t.Fatalf("manifest panics = %d, want 1", run.Manifest.Panics)
	}
}

// TestNonConvergedTrialIsErrorNotCached: an analytic trial whose fixed
// point runs out of budget without a typed failure gets one attempt and
// fails as a not-converged error. Its values are not a fixed point, so
// they reach neither the results nor the cache.
func TestNonConvergedTrialIsErrorNotCached(t *testing.T) {
	orig := execute
	defer func() { execute = orig }()
	calls := 0
	execute = func(tr Trial, pol ExecPolicy, ses *core.Session) (Outcome, error) {
		calls++
		return Outcome{Values: map[string]float64{"N0": 1}, Converged: false,
			Result: &core.Result{Iterations: 200, FixedPointResidual: 3e-4}}, nil
	}
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
	if calls != 1 {
		t.Fatalf("%d attempts, want 1", calls)
	}
	if r.Status != StatusError || r.Kind != "not-converged" || r.Values != nil {
		t.Fatalf("non-converged trial → status %q kind %q values %v, want a not-converged error without values",
			r.Status, r.Kind, r.Values)
	}
	if !strings.Contains(r.Err, "after 200 iterations") || !strings.Contains(r.Err, "residual 0.0003") {
		t.Fatalf("error %q does not report the rounds and residual", r.Err)
	}
	if run.Manifest.Errors != 1 {
		t.Fatalf("manifest errors = %d, want 1", run.Manifest.Errors)
	}
	if _, ok := cache.Get(r.Key); ok || cache.Len() != 0 {
		t.Fatal("non-converged values were cached")
	}
}

// TestAllUnstableIsFinal: a trial whose every class is past its
// stability boundary has its final answer — every class Unstable — and
// is recorded ok with the values the single fixed-point round gives.
func TestAllUnstableIsFinal(t *testing.T) {
	sc := testSpec().Base
	for i := range sc.Classes {
		sc.Classes[i].Lambda = 5
	}
	run, err := RunTrials(context.Background(), []Trial{{Scenario: sc, Method: MethodAnalytic}},
		Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := run.Results[0]
	if r.Status != StatusOK || run.Manifest.Errors != 0 {
		t.Fatalf("status %q, manifest errors %d; want ok, none", r.Status, run.Manifest.Errors)
	}
	want := map[string]float64{
		"N0": Unstable, "T0": Unstable, "N1": Unstable, "T1": Unstable,
		"totalN": 0, "iterations": 1, "fixedPointResidual": 0, "meanCycle": 0,
	}
	if !reflect.DeepEqual(r.Values, want) {
		t.Fatalf("values %v, want %v", r.Values, want)
	}
}

func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	trials, err := testSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	run, err := RunTrials(ctx, trials, Options{Workers: 2})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if run.Manifest.Canceled == 0 {
		t.Fatal("no trials marked canceled")
	}
	for _, r := range run.Results {
		if r.Status == "" {
			t.Fatal("unmarked trial result")
		}
	}
}

func TestScenarioModelShapes(t *testing.T) {
	sc := testSpec().Base
	sc.Classes[0].ServiceSCV = 4 // hyperexponential fit
	m, err := sc.Model()
	if err != nil {
		t.Fatal(err)
	}
	if m.Classes[0].Service.Order() < 2 {
		t.Fatal("SCV 4 should need a multi-phase fit")
	}
	if got := m.Classes[0].Service.Mean(); math.Abs(got-1) > 1e-9 {
		t.Fatalf("fitted mean %g, want 1", got)
	}
	bad := testSpec().Base
	bad.Classes[0].Lambda = -1
	if _, err := bad.Model(); err == nil {
		t.Fatal("negative rate accepted")
	}
}

func TestWriteArtifacts(t *testing.T) {
	dir := t.TempDir()
	s := testSpec()
	run, err := Execute(context.Background(), s, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := run.WriteArtifacts(dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"manifest.json", "results.jsonl", "results.csv"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("missing artifact %s: %v", name, err)
		}
	}
	csv, err := os.ReadFile(filepath.Join(dir, "results.csv"))
	if err != nil {
		t.Fatal(err)
	}
	header := strings.SplitN(string(csv), "\n", 2)[0]
	for _, col := range []string{"index", "method", "lambda", "quantum", "N0", "totalN"} {
		if !strings.Contains(header, col) {
			t.Fatalf("csv header %q missing %q", header, col)
		}
	}
	if !strings.Contains(run.Summary(), "6 trials") {
		t.Fatalf("summary: %q", run.Summary())
	}
}

func TestParseSpecJSON(t *testing.T) {
	data := []byte(`{
		"name": "cli",
		"base": {"processors": 8, "classes": [
			{"partition": 1, "lambda": 0.4, "mu": 0.5, "quantumMean": 1, "overheadMean": 0.01},
			{"partition": 8, "lambda": 0.4, "mu": 4, "quantumMean": 1, "overheadMean": 0.01}
		]},
		"axes": [{"param": "quantum", "values": [0.5, 1, 2]}],
		"methods": ["analytic", "sim"],
		"seed": 0
	}`)
	s, err := ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	trials, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(trials) != 6 {
		t.Fatalf("%d trials, want 6", len(trials))
	}
	if s.Seed != 0 {
		t.Fatalf("explicit zero seed mangled: %d", s.Seed)
	}
}
