package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/certify"
	"repro/internal/certify/faultinject"
	"repro/internal/matrix"
	"repro/internal/sweep"
)

// chaosDuration is the soak length: ~1.5s in the ordinary test suite,
// scaled up by GANG_CHAOS_SECONDS for `make chaos` / `make chaos-short`.
func chaosDuration() time.Duration {
	if s := os.Getenv("GANG_CHAOS_SECONDS"); s != "" {
		if sec, err := strconv.ParseFloat(s, 64); err == nil && sec > 0 {
			return time.Duration(sec * float64(time.Second))
		}
	}
	return 1500 * time.Millisecond
}

// TestChaosSoak is the seeded chaos harness: the daemon serves
// concurrent traffic while probabilistic fault schedules panic shard
// solves, fail them with numeric errors, inject solver latency, and
// NaN-contaminate R iterates — on top of a cache directory that starts
// with a torn append and a corrupt record. Invariants:
//
//   - the process never dies (every request gets an HTTP answer; healthz
//     at the end);
//   - no NaN or uncertified value is ever served on a 200;
//   - the breaker opens under the failure storm and re-closes after it;
//   - cache recovery contained the torn write and quarantined the bad
//     record;
//   - client-observed status counts reconcile exactly with the error
//     counters on /metrics, and contained panics match the injected
//     count.
func TestChaosSoak(t *testing.T) {
	t.Cleanup(faultinject.Reset)

	// A cache directory that has seen a crash: one healthy record, one
	// corrupt (checksum-mismatched) record, and a torn final append.
	dir := t.TempDir()
	seed, err := sweep.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Put("chaos-seed", map[string]float64{"totalN": 1, "N0": 1, "T0": 1}); err != nil {
		t.Fatal(err)
	}
	if err := seed.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, sweep.CacheFile)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A terminated record whose checksum is wrong, then a torn tail.
	fmt.Fprintf(f, "{\"key\":\"bad\",\"values\":{\"x\":1},\"crc\":\"00000000\"}\n")
	fmt.Fprintf(f, "{\"key\":\"torn-mid-append\",\"values\":{\"x\":")
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	_, hs := newTestServer(t, Config{
		Shards:           2,
		BreakerThreshold: 3,
		BreakerCooldown:  100 * time.Millisecond,
		CacheDir:         dir,
		CacheFsync:       true,
	})
	m := scrapeMetrics(t, hs)
	if m[`gangserved_cache_recovery{event="torn_bytes"}`] <= 0 {
		t.Fatal("torn cache append not detected at open")
	}
	if m[`gangserved_cache_recovery{event="quarantined"}`] != 1 {
		t.Fatalf("corrupt record not quarantined: %v", m[`gangserved_cache_recovery{event="quarantined"}`])
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("no .corrupt sidecar: %v", err)
	}

	// Seeded fault schedules. Every run draws the same injection stream.
	panicC := faultinject.NewChaos(11, 0.02)
	errC := faultinject.NewChaos(22, 0.06)
	latC := faultinject.NewChaos(33, 0.04)
	faultinject.Arm("serve.task", func(any) error {
		if panicC.Roll() {
			panic("chaos: injected shard panic")
		}
		if errC.Roll() {
			return &certify.Failure{Kind: certify.ErrNumericContaminated, Stage: "chaos",
				Err: fmt.Errorf("chaos: injected solve failure")}
		}
		if latC.Roll() {
			time.Sleep(2 * time.Millisecond)
		}
		return nil
	})
	faultinject.ArmChaos("qbd.R", 44, 0.10, func(p any) error {
		p.(*matrix.Dense).Set(0, 0, math.NaN()) // certification must catch it: a typed failure, never a NaN 200
		return nil
	})

	// Concurrent clients. Each POST must produce an HTTP answer — a
	// transport error means the daemon died, the one unforgivable sin.
	var (
		mu          sync.Mutex
		byCode      = map[int]int64{}
		total       int64
		unhealthy   atomic.Int64
		clientErrs  atomic.Int64
		deadlineAt  = time.Now().Add(chaosDuration())
		workerCount = 4
	)
	post := func(rng *rand.Rand) {
		k := 1 + rng.Intn(2)
		lambda := 0.05 + 0.8*rng.Float64()
		body, _ := json.Marshal(SolveRequest{Scenario: multiClassScenario(k, lambda)})
		resp, err := hs.Client().Post(hs.URL+"/v1/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			clientErrs.Add(1)
			return
		}
		var sr SolveResponse
		decodeErr := json.NewDecoder(resp.Body).Decode(&sr)
		resp.Body.Close()
		mu.Lock()
		byCode[resp.StatusCode]++
		total++
		mu.Unlock()
		if resp.StatusCode != http.StatusOK {
			return
		}
		// Invariant: a 200 is a converged, finite, certified answer.
		if decodeErr != nil || !sr.Converged {
			unhealthy.Add(1)
			return
		}
		if math.IsNaN(sr.TotalN) || math.IsInf(sr.TotalN, 0) {
			unhealthy.Add(1)
			return
		}
		for _, ca := range sr.Classes {
			if ca.Stable && (math.IsNaN(ca.N) || math.IsInf(ca.N, 0) ||
				math.IsNaN(ca.T) || math.IsInf(ca.T, 0) || ca.N < 0) {
				unhealthy.Add(1)
				return
			}
			// Disk-tier rehydrated answers carry values only, by design;
			// everything else must ship its certificate.
			if ca.Stable && sr.CacheTier != "disk" && ca.Certificate == nil {
				unhealthy.Add(1)
				return
			}
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workerCount; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for time.Now().Before(deadlineAt) {
				post(rng)
			}
		}(int64(w + 1))
	}
	wg.Wait()
	// A slow run (race detector, loaded single-CPU machine) may complete
	// too few solves inside the time box for the low-rate schedules to
	// fire. They are deterministic in draw count, so keep posting until
	// both have injected at least once — the invariants below need real
	// faults to prove anything.
	extDeadline := time.Now().Add(60 * time.Second)
	extRng := rand.New(rand.NewSource(7))
	for (panicC.Injected() == 0 || errC.Injected() == 0) && time.Now().Before(extDeadline) {
		post(extRng)
	}
	soakPanics, soakErrs := panicC.Injected(), errC.Injected()
	t.Logf("soak: %d requests, byCode=%v, injected: %d panics %d errors %d delays",
		total, byCode, soakPanics, soakErrs, latC.Injected())

	if clientErrs.Load() > 0 {
		t.Fatalf("%d requests got no HTTP answer — daemon died mid-soak", clientErrs.Load())
	}
	if unhealthy.Load() > 0 {
		t.Fatalf("%d of the 200 responses were non-finite, uncertified, or unconverged", unhealthy.Load())
	}
	if soakPanics == 0 || soakErrs == 0 {
		t.Fatalf("chaos schedules injected nothing (panics=%d errs=%d); soak proved nothing", soakPanics, soakErrs)
	}

	// The random storm may or may not have tripped a breaker; force a
	// deterministic trip so open→recovery is always exercised.
	faultinject.Reset()
	faultinject.Arm("serve.task", func(any) error {
		return &certify.Failure{Kind: certify.ErrNumericContaminated, Stage: "chaos-trip",
			Err: fmt.Errorf("forced failure streak")}
	})
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 40; i++ {
		m = scrapeMetrics(t, hs)
		if m[`gangserved_breaker_transitions_total{shard="0",to="open"}`] >= 1 ||
			m[`gangserved_breaker_transitions_total{shard="1",to="open"}`] >= 1 {
			break
		}
		post(rng)
	}
	faultinject.Reset()
	m = scrapeMetrics(t, hs)
	if m[`gangserved_breaker_transitions_total{shard="0",to="open"}`]+
		m[`gangserved_breaker_transitions_total{shard="1",to="open"}`] < 1 {
		t.Fatal("no breaker ever opened under the failure storm")
	}

	// Recovery: with faults healed, every breaker must re-close once its
	// cooldown passes and a probe succeeds.
	recoverDeadline := time.Now().Add(10 * time.Second)
	for {
		m = scrapeMetrics(t, hs)
		if m[`gangserved_breaker_state{shard="0"}`] == 0 && m[`gangserved_breaker_state{shard="1"}`] == 0 {
			break
		}
		if time.Now().After(recoverDeadline) {
			t.Fatalf("breakers never re-closed: shard0=%v shard1=%v",
				m[`gangserved_breaker_state{shard="0"}`], m[`gangserved_breaker_state{shard="1"}`])
		}
		post(rng) // fresh structures/lambdas probe both shards over time
		time.Sleep(20 * time.Millisecond)
	}

	// Error accounting reconciles: the clients' per-status counts equal
	// the server's request counters, and every contained panic was an
	// injected one.
	m = scrapeMetrics(t, hs)
	mu.Lock()
	defer mu.Unlock()
	var metricTotal float64
	for code, n := range byCode {
		key := fmt.Sprintf("gangserved_requests_total{endpoint=%q,code=%q}", "solve", strconv.Itoa(code))
		if m[key] != float64(n) {
			t.Errorf("status %d: client saw %d, server counted %v", code, n, m[key])
		}
	}
	for k, v := range m {
		if len(k) > 25 && k[:25] == `gangserved_requests_total` && bytes.Contains([]byte(k), []byte(`endpoint="solve"`)) {
			metricTotal += v
		}
	}
	if metricTotal != float64(total) {
		t.Errorf("server counted %v solve requests, clients made %d", metricTotal, total)
	}
	if got := m[`gangserved_panics_total{where="shard"}`]; got != float64(soakPanics) {
		t.Errorf("contained shard panics %v != injected %d", got, soakPanics)
	}
	if m[`gangserved_panics_total{where="handler"}`] != 0 {
		t.Errorf("handler panics during soak: %v", m[`gangserved_panics_total{where="handler"}`])
	}

	// And the daemon is still alive and healthy.
	resp, err := hs.Client().Get(hs.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after soak: %v %v", resp, err)
	}
	resp.Body.Close()
}
