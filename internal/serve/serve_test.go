package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/certify"
	"repro/internal/certify/faultinject"
	"repro/internal/core"
	"repro/internal/sweep"
)

// testScenario is the shared single-class system: tiny (order-1 phases,
// two servers) so a solve is milliseconds, stable at every lambda the
// tests use.
func testScenario(lambda float64) sweep.Scenario {
	return sweep.Scenario{
		Processors: 2,
		Classes: []sweep.ClassSpec{{
			Partition: 1, Lambda: lambda, Mu: 1, QuantumMean: 1, OverheadMean: 0.01,
		}},
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, hs
}

// gateSolves blocks every shard solve until release is called. Cleanup
// ordering matters: the returned release is registered after the server
// cleanup, so a failing test releases the gate (unblocking the shards)
// before the server tries to drain them.
func gateSolves(t *testing.T) (release func()) {
	t.Helper()
	gate := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	testHookBeforeSolve = func(sweep.Trial) { <-gate }
	t.Cleanup(func() { testHookBeforeSolve = nil })
	t.Cleanup(release)
	return release
}

func postJSON(t *testing.T, client *http.Client, url string, body any) (int, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func solve(t *testing.T, hs *httptest.Server, req SolveRequest) (int, *SolveResponse) {
	t.Helper()
	code, body := postJSON(t, hs.Client(), hs.URL+"/v1/solve", req)
	var sr SolveResponse
	if code == http.StatusOK || code == http.StatusUnprocessableEntity {
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatalf("decoding response (%d): %v\n%s", code, err, body)
		}
	}
	return code, &sr
}

func TestSolveEndToEnd(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	code, resp := solve(t, hs, SolveRequest{Scenario: testScenario(0.4)})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !resp.Converged || resp.Key == "" || !(resp.FixedPointResidual < 1e-6) {
		t.Fatalf("unhealthy response: %+v", resp)
	}
	ca := resp.Classes[0]
	if !ca.Stable || ca.N <= 0 || ca.T <= 0 {
		t.Fatalf("class answer: %+v", ca)
	}
	if ca.Certificate == nil || len(ca.Certificate.Path) == 0 {
		t.Fatalf("served result carries no certificate: %+v", ca)
	}
	if resp.Counters.Solves == 0 {
		t.Fatalf("no pipeline counters on response: %+v", resp.Counters)
	}
	// The key is the same content hash a gangsweep trial would use.
	want := sweep.Trial{Scenario: testScenario(0.4), Method: sweep.MethodAnalytic}.Key()
	if resp.Key != want {
		t.Fatalf("key %s, want trial key %s", resp.Key, want)
	}
}

// TestCoalesce proves N identical concurrent requests trigger exactly
// one solver call: the leader is held at the solve gate until every
// sibling is parked on its flight, so none can fall through to the memo.
func TestCoalesce(t *testing.T) {
	s, hs := newTestServer(t, Config{Shards: 1})
	release := gateSolves(t)

	const n = 6
	req := SolveRequest{Scenario: testScenario(0.45)}
	key := req.trial().Key()
	before := s.met.trialSolves.Load()

	codes := make(chan int, n)
	coalesced := make(chan bool, n)
	for i := 0; i < n; i++ {
		go func() {
			code, resp := solve(t, hs, req)
			codes <- code
			coalesced <- resp.Coalesced
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.flights.waitersFor(key) < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d waiters joined", s.flights.waitersFor(key))
		}
		time.Sleep(time.Millisecond)
	}
	release()

	joined := 0
	for i := 0; i < n; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		if <-coalesced {
			joined++
		}
	}
	if joined != n-1 {
		t.Fatalf("%d coalesced responses, want %d", joined, n-1)
	}
	if got := s.met.trialSolves.Load() - before; got != 1 {
		t.Fatalf("%d shard solves for %d identical concurrent requests, want 1", got, n)
	}
	if got := s.met.coalesced.Load(); got != n-1 {
		t.Fatalf("coalesced metric %d, want %d", got, n-1)
	}
}

// TestShardRouting proves same-structural-signature requests land on
// the same session: the second solve refills the first's chains (zero
// builds).
func TestShardRouting(t *testing.T) {
	_, hs := newTestServer(t, Config{Shards: 3})
	code, r1 := solve(t, hs, SolveRequest{Scenario: testScenario(0.40)})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	code, r2 := solve(t, hs, SolveRequest{Scenario: testScenario(0.42)})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if r1.Shard != r2.Shard {
		t.Fatalf("same structure routed to shards %d and %d", r1.Shard, r2.Shard)
	}
	if r2.Counters.Builds != 0 || r2.Counters.Refills == 0 {
		t.Fatalf("second solve did not refill the session's chains: %+v", r2.Counters)
	}
}

// TestServedAnswerIsOneShotSolve: a served answer depends only on its
// request. Solves routed in turn through one shard's session must each
// equal the one-shot core.Solve of the same model bit for bit, and every
// healthy answer must reach the shared disk tier.
func TestServedAnswerIsOneShotSolve(t *testing.T) {
	s, hs := newTestServer(t, Config{Shards: 1, CacheDir: t.TempDir()})
	var keys []string
	for _, lambda := range []float64{0.40, 0.50, 0.42} {
		sc := testScenario(lambda)
		code, resp := solve(t, hs, SolveRequest{Scenario: sc})
		if code != http.StatusOK || resp.Cached {
			t.Fatalf("lambda=%g: status %d, cached %v", lambda, code, resp.Cached)
		}
		m, err := sc.Model()
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.Solve(m, core.SolveOptions{Parallel: 1})
		if err != nil {
			t.Fatal(err)
		}
		for p, cr := range want.Classes {
			if got := resp.Classes[p].N; math.Float64bits(got) != math.Float64bits(cr.N) {
				t.Errorf("lambda=%g class %d: served N %v, one-shot N %v (diff %g)", lambda, p, got, cr.N, got-cr.N)
			}
		}
		if resp.FixedPointResidual != want.FixedPointResidual {
			t.Errorf("lambda=%g: served residual %v, one-shot residual %v", lambda, resp.FixedPointResidual, want.FixedPointResidual)
		}
		keys = append(keys, resp.Key)
	}
	if n := s.store.diskLen(); n != len(keys) {
		t.Errorf("disk tier holds %d answers, want %d", n, len(keys))
	}
	for _, k := range keys {
		if _, ok := s.store.disk.Get(k); !ok {
			t.Errorf("answer %s missing from the disk tier", k)
		}
	}
}

func TestMemoCacheHit(t *testing.T) {
	s, hs := newTestServer(t, Config{})
	req := SolveRequest{Scenario: testScenario(0.5)}
	if code, _ := solve(t, hs, req); code != http.StatusOK {
		t.Fatalf("priming solve failed")
	}
	before := s.met.trialSolves.Load()
	code, resp := solve(t, hs, req)
	if code != http.StatusOK || !resp.Cached || resp.CacheTier != "memo" {
		t.Fatalf("want memo hit, got code %d resp %+v", code, resp)
	}
	if resp.Classes[0].Certificate == nil {
		t.Fatal("memo hit lost the certificate")
	}
	if got := s.met.trialSolves.Load() - before; got != 0 {
		t.Fatalf("cache hit made %d shard solves", got)
	}
}

// TestDiskCacheSharedWithSweep proves the daemon reads answers a
// gangsweep batch run wrote: a new server process serves the sweep's
// trial with zero solver calls.
func TestDiskCacheSharedWithSweep(t *testing.T) {
	dir := t.TempDir()
	cache, err := sweep.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	trial := sweep.Trial{Scenario: testScenario(0.55), Method: sweep.MethodAnalytic}
	run, err := sweep.RunTrials(context.Background(), []sweep.Trial{trial}, sweep.Options{
		Workers: 1, Cache: cache,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cache.Close(); err != nil {
		t.Fatal(err)
	}

	s, hs := newTestServer(t, Config{CacheDir: dir})
	before := s.met.trialSolves.Load()
	code, resp := solve(t, hs, SolveRequest{Scenario: testScenario(0.55)})
	if code != http.StatusOK || !resp.Cached || resp.CacheTier != "disk" {
		t.Fatalf("want disk hit, got code %d resp %+v", code, resp)
	}
	if !resp.Classes[0].Stable || resp.Classes[0].N <= 0 {
		t.Fatalf("rehydrated answer: %+v", resp.Classes[0])
	}
	if want := run.Results[0].Values["fixedPointResidual"]; resp.FixedPointResidual != want || !(want < 1e-6) {
		t.Fatalf("rehydrated residual %v, sweep recorded %v", resp.FixedPointResidual, want)
	}
	if got := s.met.trialSolves.Load() - before; got != 0 {
		t.Fatalf("disk hit made %d shard solves", got)
	}
}

// TestDiskTierHoldsNoUnconvergedSweepTrial: a sweep trial whose fixed
// point runs out of budget fails and is not cached, so a daemon on the
// same directory solves the request itself and answers 422 — never a
// disk-tier 200 that calls the unconverged values converged.
func TestDiskTierHoldsNoUnconvergedSweepTrial(t *testing.T) {
	dir := t.TempDir()
	cache, err := sweep.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	sc, budget := multiClassScenario(2, 0.3), sweep.SolveParams{MaxIterations: 2}
	trial := sweep.Trial{Scenario: sc, Method: sweep.MethodAnalytic, Solve: budget}
	run, err := sweep.RunTrials(context.Background(), []sweep.Trial{trial}, sweep.Options{
		Workers: 1, Cache: cache,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r := run.Results[0]; r.Status != sweep.StatusError || r.Kind != "not-converged" {
		t.Fatalf("two-round sweep trial: status %q kind %q, want a not-converged error", r.Status, r.Kind)
	}
	if err := cache.Close(); err != nil {
		t.Fatal(err)
	}

	_, hs := newTestServer(t, Config{CacheDir: dir})
	code, resp := solve(t, hs, SolveRequest{Scenario: sc, Solve: budget})
	if code != http.StatusUnprocessableEntity || resp.Cached || resp.Converged {
		t.Fatalf("status %d, cached %v, converged %v; want a fresh 422", code, resp.Cached, resp.Converged)
	}
}

// TestDiskCacheSharedWithSweepHeavy is the heavy-traffic twin of
// TestDiskCacheSharedWithSweep: a disk hit for a heavy request answers
// with the sweep's heavy values and says "method":"heavy".
func TestDiskCacheSharedWithSweepHeavy(t *testing.T) {
	dir := t.TempDir()
	cache, err := sweep.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	trial := sweep.Trial{Scenario: testScenario(0.55), Method: sweep.MethodHeavy}
	run, err := sweep.RunTrials(context.Background(), []sweep.Trial{trial}, sweep.Options{
		Workers: 1, Cache: cache,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cache.Close(); err != nil {
		t.Fatal(err)
	}

	s, hs := newTestServer(t, Config{CacheDir: dir})
	before := s.met.trialSolves.Load()
	code, resp := solve(t, hs, SolveRequest{Scenario: testScenario(0.55), Method: sweep.MethodHeavy})
	if code != http.StatusOK || !resp.Cached || resp.CacheTier != "disk" {
		t.Fatalf("want disk hit, got code %d resp %+v", code, resp)
	}
	if resp.Method != sweep.MethodHeavy {
		t.Fatalf("disk hit for a heavy request reports method %q", resp.Method)
	}
	if want := run.Results[0].Values["N0"]; resp.Classes[0].N != want {
		t.Fatalf("rehydrated N %v, sweep recorded %v", resp.Classes[0].N, want)
	}
	if got := s.met.trialSolves.Load() - before; got != 0 {
		t.Fatalf("disk hit made %d shard solves", got)
	}
}

func TestAdmissionControl(t *testing.T) {
	s, hs := newTestServer(t, Config{Rate: 1, Burst: 2})
	t0 := time.Now()
	s.bucket.now = func() time.Time { return t0 } // frozen clock: no refill
	var last *http.Response
	for i := 0; i < 2; i++ {
		code, _ := solve(t, hs, SolveRequest{Scenario: testScenario(0.4)})
		if code != http.StatusOK {
			t.Fatalf("request %d shed inside burst: %d", i, code)
		}
	}
	resp, err := hs.Client().Post(hs.URL+"/v1/solve", "application/json",
		strings.NewReader(`{"scenario":{"processors":2,"classes":[{"partition":1,"lambda":0.4,"mu":1,"quantumMean":1,"overheadMean":0.01}]}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	last = resp
	if last.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", last.StatusCode)
	}
	if last.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if s.met.shed.Load() != 1 {
		t.Fatalf("shed metric %d, want 1", s.met.shed.Load())
	}
}

// TestDeadline proves the per-request deadline maps onto context
// cancellation: a request whose solve is stuck past its timeout gets
// 504, and the server stays healthy afterwards.
func TestDeadline(t *testing.T) {
	_, hs := newTestServer(t, Config{Shards: 1})
	release := gateSolves(t)
	code, _ := solve(t, hs, SolveRequest{Scenario: testScenario(0.4), TimeoutMillis: 50})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", code)
	}
	release()
	if code, _ := solve(t, hs, SolveRequest{Scenario: testScenario(0.4)}); code != http.StatusOK {
		t.Fatalf("server unhealthy after deadline: %d", code)
	}
}

// TestDegradedOptIn injects a per-class analytic failure and checks the
// two policies: without the opt-in the typed failure maps to its status;
// with both opt-ins the class degrades to simulation values under a 200
// with degraded:true.
func TestDegradedOptIn(t *testing.T) {
	defer faultinject.Reset()
	arm := func() {
		faultinject.Arm("core.class", func(payload any) error {
			if p, ok := payload.(int); ok && p == 0 {
				return &certify.Failure{Kind: certify.ErrNumericContaminated, Stage: "test"}
			}
			return nil
		})
	}
	scenario := sweep.Scenario{
		Processors: 2,
		Classes: []sweep.ClassSpec{
			{Partition: 1, Lambda: 0.3, Mu: 1, QuantumMean: 1, OverheadMean: 0.01},
			{Partition: 2, Lambda: 0.2, Mu: 1, QuantumMean: 1, OverheadMean: 0.01},
		},
	}
	_, hs := newTestServer(t, Config{AllowDegraded: true})

	arm()
	code, body := postJSON(t, hs.Client(), hs.URL+"/v1/solve", SolveRequest{Scenario: scenario})
	if code != http.StatusInternalServerError {
		t.Fatalf("without opt-in: status %d, want 500\n%s", code, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Kind != "numeric" {
		t.Fatalf("error body %s", body)
	}

	arm() // re-arm: the scrape above consumed nothing but stay explicit
	code, resp := solve(t, hs, SolveRequest{Scenario: scenario, AllowDegraded: true})
	if code != http.StatusOK {
		t.Fatalf("with opt-in: status %d", code)
	}
	if !resp.Degraded || !resp.Classes[0].Degraded || resp.Classes[0].Kind != "numeric" {
		t.Fatalf("degraded response: %+v", resp)
	}
	if resp.Classes[0].N <= 0 || resp.Classes[1].Degraded {
		t.Fatalf("sim fallback should replace only the failed class: %+v", resp.Classes)
	}
	faultinject.Reset()
}

// TestDegradedExhaustedBudgetIs422: "converged" is the fixed point's
// verdict, so a degraded answer whose fixed point ran out of budget
// ships its body under 422, not 200, and is not memoized.
func TestDegradedExhaustedBudgetIs422(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Arm("core.class", func(payload any) error {
		if p, ok := payload.(int); ok && p == 0 {
			return &certify.Failure{Kind: certify.ErrNumericContaminated, Stage: "test"}
		}
		return nil
	})
	req := SolveRequest{
		Scenario: sweep.Scenario{Processors: 2, Classes: []sweep.ClassSpec{
			{Partition: 1, Lambda: 0.3, Mu: 1, QuantumMean: 1, OverheadMean: 0.01},
			{Partition: 2, Lambda: 0.2, Mu: 1, QuantumMean: 1, OverheadMean: 0.01},
		}},
		Solve:         sweep.SolveParams{MaxIterations: 1},
		AllowDegraded: true,
	}
	s, hs := newTestServer(t, Config{AllowDegraded: true})
	code, resp := solve(t, hs, req)
	if code != http.StatusUnprocessableEntity || resp.Converged || !resp.Degraded {
		t.Fatalf("status %d, converged %v, degraded %v; want 422, false, true",
			code, resp.Converged, resp.Degraded)
	}
	if n := s.store.memoLen(); n != 0 {
		t.Fatalf("memo holds %d answers, want none", n)
	}
}

func TestRequestRejections(t *testing.T) {
	_, hs := newTestServer(t, Config{MaxBody: 512})
	valid := `{"scenario":{"processors":2,"classes":[{"partition":1,"lambda":0.4,"mu":1,"quantumMean":1,"overheadMean":0.01}]}}`
	cases := []struct {
		name, body string
	}{
		{"unknown field", `{"scenario":{"processors":2,"classes":[{"partition":1,"lambda":0.4,"mu":1,"quantumMean":1,"overheadMean":0.01}]},"nope":1}`},
		{"not json", `hello`},
		{"trailing data", valid + `{"again":true}`},
		{"huge exponent", `{"scenario":{"processors":2,"classes":[{"partition":1,"lambda":1e999,"mu":1,"quantumMean":1,"overheadMean":0.01}]}}`},
		{"no classes", `{"scenario":{"processors":2,"classes":[]}}`},
		{"bad method", `{"method":"sim","scenario":{"processors":2,"classes":[{"partition":1,"lambda":0.4,"mu":1,"quantumMean":1,"overheadMean":0.01}]}}`},
		{"negative timeout", `{"timeoutMillis":-5,"scenario":{"processors":2,"classes":[{"partition":1,"lambda":0.4,"mu":1,"quantumMean":1,"overheadMean":0.01}]}}`},
		{"partition does not divide", `{"scenario":{"processors":3,"classes":[{"partition":2,"lambda":0.4,"mu":1,"quantumMean":1,"overheadMean":0.01}]}}`},
		// The fixed point's damping and acceleration knobs are gone; a
		// request naming either is an unknown field, not a silent no-op.
		{"removed damping", `{"solve":{"damping":0.5},"scenario":{"processors":2,"classes":[{"partition":1,"lambda":0.4,"mu":1,"quantumMean":1,"overheadMean":0.01}]}}`},
		{"removed acceleration", `{"solve":{"disableAcceleration":true},"scenario":{"processors":2,"classes":[{"partition":1,"lambda":0.4,"mu":1,"quantumMean":1,"overheadMean":0.01}]}}`},
		{"oversized", `{"scenario":{"processors":2,"classes":[` + strings.Repeat(`{"partition":1,"lambda":0.4,"mu":1,"quantumMean":1,"overheadMean":0.01},`, 20) + `]}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := hs.Client().Post(hs.URL+"/v1/solve", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400\n%s", resp.StatusCode, body)
			}
			var eb errorBody
			if err := json.Unmarshal(body, &eb); err != nil || eb.Kind != "config" {
				t.Fatalf("want typed config error, got %s", body)
			}
		})
	}
}

// TestStatusTableExhaustive locks the kind→status table to the full
// failure taxonomy: every KindLabel the certify package can produce has
// exactly one row, and each row maps a Failure of its kind to its
// status.
func TestStatusTableExhaustive(t *testing.T) {
	wantLabels := []string{"deadline", "config", "disagreement", "numeric", "singular-boundary", "unstable", "not-converged"}
	if len(kindStatus) != len(wantLabels) {
		t.Fatalf("table has %d rows, want one per taxonomy kind (%d)", len(kindStatus), len(wantLabels))
	}
	seen := map[string]bool{}
	for _, e := range kindStatus {
		label := certify.KindLabel(e.Kind)
		if label != e.Label {
			t.Errorf("row %q: KindLabel(kind) = %q", e.Label, label)
		}
		if seen[label] {
			t.Errorf("duplicate row for %q", label)
		}
		seen[label] = true
		f := &certify.Failure{Kind: e.Kind, Stage: "test"}
		if got := statusFor(f); got != e.Status {
			t.Errorf("statusFor(%s) = %d, want %d", label, got, e.Status)
		}
		if e.Status < 400 || e.Status > 599 {
			t.Errorf("%s maps to non-error status %d", label, e.Status)
		}
	}
	for _, l := range wantLabels {
		if !seen[l] {
			t.Errorf("taxonomy kind %q has no status mapping", l)
		}
	}
	if got := statusFor(errors.New("untyped")); got != http.StatusInternalServerError {
		t.Errorf("untyped error → %d, want 500", got)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	req := SolveRequest{Scenario: testScenario(0.4)}
	solve(t, hs, req) // solved
	solve(t, hs, req) // memo hit
	resp, err := hs.Client().Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		`gangserved_requests_total{endpoint="solve",code="200"} 2`,
		`gangserved_cache_hits_total{tier="memo"} 1`,
		`gangserved_pipeline_total{stage="solves"}`,
		`gangserved_pipeline_total{stage="r_iterations"}`,
		`gangserved_request_duration_seconds_count{endpoint="solve"} 2`,
		`gangserved_store_entries{tier="memo"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// The pipeline counters must reflect real solver work.
	var solves int
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, `gangserved_pipeline_total{stage="solves"}`) {
			fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &solves)
		}
	}
	if solves == 0 {
		t.Fatal("pipeline solves counter is zero after a served solve")
	}
}

func TestSweepEndpoint(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	req := SweepRequest{Spec: sweep.Spec{
		Name: "served-sweep",
		Base: testScenario(0.4),
		Axes: []sweep.Axis{{Param: "quantum", Values: []float64{0.5, 1, 2}}},
	}}
	code, body := postJSON(t, hs.Client(), hs.URL+"/v1/sweep", req)
	if code != http.StatusOK {
		t.Fatalf("status %d\n%s", code, body)
	}
	var sr SweepResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Manifest.Trials != 3 || sr.Manifest.Errors != 0 {
		t.Fatalf("manifest: %+v", sr.Manifest)
	}
	if len(sr.Results) != 3 || sr.Results[0].Values["totalN"] <= 0 {
		t.Fatalf("results: %+v", sr.Results)
	}
}

func TestSweepGridLimit(t *testing.T) {
	_, hs := newTestServer(t, Config{MaxSweepTrials: 2})
	req := SweepRequest{Spec: sweep.Spec{
		Name: "too-big",
		Base: testScenario(0.4),
		Axes: []sweep.Axis{{Param: "quantum", Values: []float64{0.5, 1, 2}}},
	}}
	code, body := postJSON(t, hs.Client(), hs.URL+"/v1/sweep", req)
	if code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400\n%s", code, body)
	}
}

func TestHealthz(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	resp, err := hs.Client().Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}
