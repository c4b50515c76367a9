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
//   - at least a quarter of the two-class requests answer a 200 that
//     passes those checks, so they reach coupled classes, not only the
//     failure paths;
//   - no request is refused with a 503: a shard solves every request it
//     is handed, and after the storm a one-class and a two-class
//     request each answer 200;
//   - cache recovery contained the torn write and quarantined the bad
//     record;
//   - client-observed status counts reconcile exactly with the error
//     counters on /metrics, contained panics match the injected count,
//     and the 500s are exactly the injected faults: a failed request
//     is evidence against that request alone.
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
		Shards:     2,
		CacheDir:   dir,
		CacheFsync: true,
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
	// The NaN schedule rolls once per certified R solve, and a two-class
	// request runs about forty of them across its fixed-point rounds, so
	// its rate is kept low enough that most two-class requests survive it.
	nanC := faultinject.ArmChaos("qbd.R", 44, 0.01, func(p any) error {
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
		// sent and healthy tally, by class count, the requests answered
		// and the 200s that passed every invariant; solves2 sums the QBD
		// solves (each rolls the qbd.R schedule once) of the solved2
		// two-class 200s that ran the solver.
		sent, healthy    [3]atomic.Int64
		solves2, solved2 atomic.Int64
	)
	// post sends one k-class request and returns its status (0 when no
	// HTTP answer came back).
	post := func(k int, lambda float64) int {
		body, _ := json.Marshal(SolveRequest{Scenario: multiClassScenario(k, lambda)})
		resp, err := hs.Client().Post(hs.URL+"/v1/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			clientErrs.Add(1)
			return 0
		}
		var sr SolveResponse
		decodeErr := json.NewDecoder(resp.Body).Decode(&sr)
		resp.Body.Close()
		mu.Lock()
		byCode[resp.StatusCode]++
		total++
		mu.Unlock()
		sent[k].Add(1)
		if resp.StatusCode != http.StatusOK {
			return resp.StatusCode
		}
		// Invariant: a 200 is a converged, finite, certified answer.
		if decodeErr != nil || !sr.Converged {
			unhealthy.Add(1)
			return resp.StatusCode
		}
		if math.IsNaN(sr.TotalN) || math.IsInf(sr.TotalN, 0) {
			unhealthy.Add(1)
			return resp.StatusCode
		}
		for _, ca := range sr.Classes {
			if ca.Stable && (math.IsNaN(ca.N) || math.IsInf(ca.N, 0) ||
				math.IsNaN(ca.T) || math.IsInf(ca.T, 0) || ca.N < 0) {
				unhealthy.Add(1)
				return resp.StatusCode
			}
			// Disk-tier rehydrated answers carry values only, by design;
			// everything else must ship its certificate.
			if ca.Stable && sr.CacheTier != "disk" && ca.Certificate == nil {
				unhealthy.Add(1)
				return resp.StatusCode
			}
		}
		healthy[k].Add(1)
		if k == 2 && !sr.Cached && !sr.Coalesced {
			solves2.Add(int64(sr.Counters.Solves))
			solved2.Add(1)
		}
		return resp.StatusCode
	}
	postRandom := func(rng *rand.Rand) { post(1+rng.Intn(2), 0.05+0.8*rng.Float64()) }
	var wg sync.WaitGroup
	for w := 0; w < workerCount; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for time.Now().Before(deadlineAt) {
				postRandom(rng)
			}
		}(int64(w + 1))
	}
	wg.Wait()
	// A slow run (race detector, loaded single-CPU machine) may complete
	// too few solves inside the time box for the low-rate schedules to
	// fire. They are deterministic in draw count, so keep posting until
	// each fault has been injected at least once — the invariants below
	// need real faults to prove anything.
	extDeadline := time.Now().Add(60 * time.Second)
	extRng := rand.New(rand.NewSource(7))
	for (panicC.Injected() == 0 || errC.Injected() == 0 || nanC.Injected() == 0) &&
		time.Now().Before(extDeadline) {
		postRandom(extRng)
	}
	faultinject.Reset()
	soakPanics, soakErrs, soakNaNs := panicC.Injected(), errC.Injected(), nanC.Injected()
	t.Logf("soak: %d requests, byCode=%v, injected: %d panics %d errors %d NaN iterates %d delays",
		total, byCode, soakPanics, soakErrs, soakNaNs, latC.Injected())
	t.Logf("healthy 200s: one-class %d of %d, two-class %d of %d; %.1f QBD solves per solved two-class request",
		healthy[1].Load(), sent[1].Load(), healthy[2].Load(), sent[2].Load(),
		float64(solves2.Load())/float64(max(solved2.Load(), 1)))

	if clientErrs.Load() > 0 {
		t.Fatalf("%d requests got no HTTP answer — daemon died mid-soak", clientErrs.Load())
	}
	if unhealthy.Load() > 0 {
		t.Fatalf("%d of the 200 responses were non-finite, uncertified, or unconverged", unhealthy.Load())
	}
	if soakPanics == 0 || soakErrs == 0 || soakNaNs == 0 {
		t.Fatalf("chaos schedules injected nothing (panics=%d errs=%d NaNs=%d); soak proved nothing",
			soakPanics, soakErrs, soakNaNs)
	}
	if h, n := healthy[2].Load(), sent[2].Load(); 4*h < n {
		t.Fatalf("only %d of %d two-class requests answered a healthy 200; the soak barely reached coupled classes", h, n)
	}
	if n := byCode[http.StatusServiceUnavailable]; n != 0 {
		t.Fatalf("%d requests refused with a 503 during the soak", n)
	}

	// After the storm, both structures answer: no shard holds a failure
	// against the requests that follow it.
	for k := 1; k <= 2; k++ {
		if code := post(k, 0.3); code != http.StatusOK {
			t.Fatalf("%d-class request after the storm: status %d", k, code)
		}
	}

	// Error accounting reconciles: the clients' per-status counts equal
	// the server's request counters, every contained panic was an
	// injected one, and every 500 answers exactly one injected fault —
	// a shard panic, a serve.task error or a NaN R iterate.
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
	if got, want := m[`gangserved_requests_total{endpoint="solve",code="500"}`],
		soakPanics+soakErrs+soakNaNs; got != float64(want) {
		t.Errorf("server answered %v 500s, want %d (%d panics + %d errors + %d NaN iterates)",
			got, want, soakPanics, soakErrs, soakNaNs)
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
