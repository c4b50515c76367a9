package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/certify"
	"repro/internal/certify/faultinject"
	"repro/internal/sweep"
)

// postRaw is postJSON but keeps the response headers — the Retry-After
// assertions need them.
func postRaw(t *testing.T, client *http.Client, url string, body any) (*http.Response, []byte) {
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
	return resp, out
}

// errBody decodes a JSON error body.
func errBody(t *testing.T, body []byte) errorBody {
	t.Helper()
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("decoding error body: %v\n%s", err, body)
	}
	return eb
}

// scrapeMetrics fetches /metrics and returns every sample as
// "name{labels}" → value.
func scrapeMetrics(t *testing.T, hs *httptest.Server) map[string]float64 {
	t.Helper()
	resp, err := hs.Client().Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// multiClassScenario builds a k-class variant of the test system; each
// class count is a distinct structural signature, so requests spread
// over distinct shards.
func multiClassScenario(k int, lambda float64) sweep.Scenario {
	sc := sweep.Scenario{Processors: 2}
	for i := 0; i < k; i++ {
		sc.Classes = append(sc.Classes, sweep.ClassSpec{
			Partition: 1, Lambda: lambda, Mu: 1, QuantumMean: 1, OverheadMean: 0.01,
		})
	}
	return sc
}

// TestDeadlineInterruptsSolveMidIteration is the tentpole acceptance
// proof: a request whose solve blows its deadline is interrupted
// mid-solve — the client gets a typed 504 in well under the injected
// full-solve latency, and the shard stops burning kernel time instead of
// finishing the budget. The solve is three classes whose fixed point
// takes hundreds of R iterations in all (a one-class testScenario takes
// about ten), four to six per R solve, so the stop comes from the
// ladder's per-iteration poll or the fixed point's per-round one,
// whichever is first; qbd's TestSolveDeadlineInterruptsMidIteration pins
// the per-iteration poll alone.
func TestDeadlineInterruptsSolveMidIteration(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	_, hs := newTestServer(t, Config{Shards: 1})

	// Baseline: the uninterrupted deep solve, counting iterations.
	var baseline atomic.Int64
	faultinject.Arm("qbd.iter", func(any) error { baseline.Add(1); return nil })
	if code, _ := solve(t, hs, SolveRequest{Scenario: multiClassScenario(3, 0.45)}); code != http.StatusOK {
		t.Fatalf("baseline status %d", code)
	}
	full := baseline.Load()
	if full < 60 {
		t.Fatalf("baseline solve only %d iterations; deep-solve assumption broken", full)
	}

	// Interrupted: a neighbouring deep solve (a different request, so the
	// memo cannot answer it) with 5ms of injected latency per iteration —
	// the "old" full-solve latency is full×5ms — against a 40ms request
	// deadline.
	const step = 5 * time.Millisecond
	var fired atomic.Int64
	faultinject.Arm("qbd.iter", func(any) error {
		fired.Add(1)
		time.Sleep(step)
		return nil
	})
	start := time.Now()
	resp, body := postRaw(t, hs.Client(), hs.URL+"/v1/solve",
		SolveRequest{Scenario: multiClassScenario(3, 0.44), TimeoutMillis: 40})
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504\n%s", resp.StatusCode, body)
	}
	if eb := errBody(t, body); eb.Kind != "deadline" {
		t.Fatalf("error kind %q, want deadline\n%s", eb.Kind, body)
	}
	fullLatency := time.Duration(full) * step
	if elapsed >= fullLatency/2 {
		t.Fatalf("504 took %v; not well under the %v full-solve latency", elapsed, fullLatency)
	}

	// The shard, too, must stop almost immediately: wait for the fire
	// count to go quiet, then check it stayed far below the full budget.
	last := fired.Load()
	for i := 0; i < 100; i++ {
		time.Sleep(5 * step)
		now := fired.Load()
		if now == last {
			break
		}
		last = now
	}
	if last > full/2 {
		t.Fatalf("shard ran %d of %d iterations despite the deadline", last, full)
	}
	faultinject.Reset()

	// And the server is immediately healthy again.
	if code, _ := solve(t, hs, SolveRequest{Scenario: testScenario(0.63)}); code != http.StatusOK {
		t.Fatalf("server unhealthy after interrupt: %d", code)
	}
}

// TestShardPanicContained: a panic inside a shard solve is contained to
// that one request — typed 500, session recycled, daemon healthy.
func TestShardPanicContained(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	_, hs := newTestServer(t, Config{Shards: 1})
	// Prime the shard with a healthy solve so its session holds built
	// chains.
	if code, _ := solve(t, hs, SolveRequest{Scenario: testScenario(0.30)}); code != http.StatusOK {
		t.Fatalf("prime failed: %d", code)
	}
	faultinject.ArmOnce("serve.task", func(any) error {
		panic("injected: solver blew up")
	})
	resp, body := postRaw(t, hs.Client(), hs.URL+"/v1/solve",
		SolveRequest{Scenario: testScenario(0.31)})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500\n%s", resp.StatusCode, body)
	}
	eb := errBody(t, body)
	if eb.Kind != "panic" || !strings.Contains(eb.Error, "injected: solver blew up") {
		t.Fatalf("error body %+v", eb)
	}
	// The next request on the same shard solves on the recycled session.
	// A same-structure solve on the primed session would refill every
	// chain; the recycled session must build them.
	code, sr := solve(t, hs, SolveRequest{Scenario: testScenario(0.32)})
	if code != http.StatusOK || !sr.Converged {
		t.Fatalf("shard dead after panic: %d %+v", code, sr)
	}
	if sr.Counters.Builds == 0 {
		t.Fatalf("solve after the panic reused the discarded session's chains: %+v", sr.Counters)
	}
	// And the recycled session reuses structure from then on.
	code, sr = solve(t, hs, SolveRequest{Scenario: testScenario(0.33)})
	if code != http.StatusOK || sr.Counters.Builds != 0 {
		t.Fatalf("recycled session rebuilt its chains: %d %+v", code, sr.Counters)
	}
	m := scrapeMetrics(t, hs)
	if m[`gangserved_panics_total{where="shard"}`] != 1 {
		t.Fatalf("shard panic not counted: %v", m[`gangserved_panics_total{where="shard"}`])
	}
	if m[`gangserved_panics_total{where="handler"}`] != 0 {
		t.Fatalf("handler panic miscounted")
	}
}

// TestHandlerPanicRecovered: the recovery middleware turns a panicking
// handler into a typed 500 and counts it; http.ErrAbortHandler passes
// through untouched.
func TestHandlerPanicRecovered(t *testing.T) {
	s, hs := newTestServer(t, Config{Shards: 1})
	h := s.withRecovery(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("handler bug")
	}))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/boom", nil))
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rr.Code)
	}
	eb := errBody(t, rr.Body.Bytes())
	if eb.Kind != "panic" || !strings.Contains(eb.Error, "handler bug") {
		t.Fatalf("error body %+v", eb)
	}
	if m := scrapeMetrics(t, hs); m[`gangserved_panics_total{where="handler"}`] != 1 {
		t.Fatalf("handler panic not counted")
	}

	abort := s.withRecovery(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	defer func() {
		if recover() != http.ErrAbortHandler {
			t.Fatal("ErrAbortHandler swallowed by recovery middleware")
		}
	}()
	abort.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/abort", nil))
	t.Fatal("unreachable")
}

// TestDrainingRetryAfter: a draining server answers with a typed 503
// whose kind and Retry-After distinguish it from the token bucket's 429.
func TestDrainingRetryAfter(t *testing.T) {
	s, hs := newTestServer(t, Config{Shards: 1})
	s.pool.close()
	resp, body := postRaw(t, hs.Client(), hs.URL+"/v1/solve",
		SolveRequest{Scenario: testScenario(0.4)})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503\n%s", resp.StatusCode, body)
	}
	if eb := errBody(t, body); eb.Kind != "draining" {
		t.Fatalf("error kind %q, want draining", eb.Kind)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After %q, want 2 (1s hint, ceiling-rounded)", ra)
	}

	// The admission 429 is a different animal: no drain kind, its own
	// Retry-After from the token bucket.
	_, hs2 := newTestServer(t, Config{Shards: 1, Rate: 0.001, Burst: 1})
	if code, _ := solve(t, hs2, SolveRequest{Scenario: testScenario(0.4)}); code != http.StatusOK {
		t.Fatalf("first request shed: %d", code)
	}
	resp2, body2 := postRaw(t, hs2.Client(), hs2.URL+"/v1/solve",
		SolveRequest{Scenario: testScenario(0.4)})
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp2.StatusCode)
	}
	if eb := errBody(t, body2); eb.Kind == "draining" {
		t.Fatal("429 mislabeled as draining")
	}
	if resp2.Header.Get("Retry-After") == "" {
		t.Fatal("429 carries no Retry-After")
	}
}

// TestDrainRacesInFlightPanic: Close while a shard is mid-panic — the
// drain must complete, the panicking request must get its typed 500,
// and nothing deadlocks.
func TestDrainRacesInFlightPanic(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	s, hs := newTestServer(t, Config{Shards: 1})
	release := gateSolves(t)
	faultinject.ArmOnce("serve.task", func(any) error {
		panic("injected: panic during drain")
	})

	type result struct {
		code int
		body []byte
	}
	done := make(chan result, 1)
	go func() {
		resp, body := postRaw(t, hs.Client(), hs.URL+"/v1/solve",
			SolveRequest{Scenario: testScenario(0.71)})
		done <- result{resp.StatusCode, body}
	}()
	// Let the solve reach the gate, then start the drain — it blocks on
	// the in-flight task — then release the gate so the panic fires
	// while the pool is closing.
	time.Sleep(30 * time.Millisecond)
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	time.Sleep(10 * time.Millisecond)
	release()

	select {
	case r := <-done:
		if r.code != http.StatusInternalServerError {
			t.Fatalf("in-flight request: status %d\n%s", r.code, r.body)
		}
		if eb := errBody(t, r.body); eb.Kind != "panic" {
			t.Fatalf("error kind %q, want panic", eb.Kind)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never answered")
	}
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("drain failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drain deadlocked against the panicking task")
	}
	// Post-drain requests are typed drain rejections, not crashes.
	resp, body := postRaw(t, hs.Client(), hs.URL+"/v1/solve",
		SolveRequest{Scenario: testScenario(0.72)})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain status %d\n%s", resp.StatusCode, body)
	}
}

// TestArmOnceConcurrentShardWorkers: an ArmOnce fault fired by several
// shard workers at once injects exactly once — the once-semantics under
// real concurrency (run under -race in CI).
func TestArmOnceConcurrentShardWorkers(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	_, hs := newTestServer(t, Config{Shards: 4})
	release := gateSolves(t)
	faultinject.ArmOnce("serve.task", func(any) error {
		return &certify.Failure{Kind: certify.ErrNumericContaminated, Stage: "test",
			Err: fmt.Errorf("injected once")}
	})

	// Distinct class counts are distinct structural signatures, so the
	// requests spread over shard workers and fire concurrently once the
	// gate opens.
	const n = 4
	codes := make(chan int, n)
	var wg sync.WaitGroup
	for k := 1; k <= n; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, _ := solve(t, hs, SolveRequest{Scenario: multiClassScenario(k, 0.2)})
			codes <- code
		}()
	}
	time.Sleep(50 * time.Millisecond) // let every worker park at the gate
	release()
	wg.Wait()
	close(codes)

	counts := map[int]int{}
	for c := range codes {
		counts[c]++
	}
	if counts[http.StatusInternalServerError] != 1 || counts[http.StatusOK] != n-1 {
		t.Fatalf("status counts %v, want exactly one 500 and %d 200s", counts, n-1)
	}
	// The hook disarmed itself: a fresh request sails through.
	if code, _ := solve(t, hs, SolveRequest{Scenario: testScenario(0.81)}); code != http.StatusOK {
		t.Fatalf("hook leaked past its once-firing: %d", code)
	}
}
