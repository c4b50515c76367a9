package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/sweep"
)

// The serving benchmarks measure the two answer paths a request can
// take, full HTTP round trip included (loopback httptest listener):
//
//   - ServeSolveWarm: never-seen scenarios on a primed shard — same
//     structural signature every time, so the session refills chains in
//     place; one full fixed-point solve each.
//   - ServeSolveCacheHit: the identical scenario repeatedly — served
//     from the memo tier with zero solver calls; this is the HTTP,
//     JSON and store overhead by itself.
//
// Each solve iteration uses a distinct lambda (golden-ratio
// low-discrepancy walk over a stable band) so it can never accidentally
// hit the answer store.

// benchScenario is a two-class system (P=4, order-2 phases via SCV 2
// arrivals); lambda sweeps class 0.
func benchScenario(lambda float64) sweep.Scenario {
	return sweep.Scenario{
		Processors: 4,
		Classes: []sweep.ClassSpec{
			{Partition: 2, Lambda: lambda, Mu: 1, QuantumMean: 1, OverheadMean: 0.01, ArrivalSCV: 2},
			{Partition: 4, Lambda: 0.15, Mu: 1, QuantumMean: 1, OverheadMean: 0.01},
		},
	}
}

func benchBody(lambda float64) []byte {
	body, err := json.Marshal(SolveRequest{Scenario: benchScenario(lambda)})
	if err != nil {
		panic(err)
	}
	return body
}

// benchLambda is the i-th point of a golden-ratio walk over the narrow
// band [0.40, 0.45): deterministic and never repeating (so no request
// can hit the answer store), yet each point is close to the last — a
// serving workload whose consecutive requests explore a neighborhood.
// The band is comfortably stable (rho = lambda/2 < 0.23).
func benchLambda(i int) float64 {
	const phi = 0.6180339887498949
	frac := math.Mod(float64(i)*phi, 1)
	return 0.40 + 0.05*frac
}

func newBenchServer(b *testing.B, cfg Config) *httptest.Server {
	b.Helper()
	cfg.Shards = 1
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	b.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return hs
}

func benchPost(b *testing.B, hs *httptest.Server, body []byte) {
	resp, err := hs.Client().Post(hs.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("status %d", resp.StatusCode)
	}
}

func BenchmarkServeSolveWarm(b *testing.B) {
	hs := newBenchServer(b, Config{})
	// Prime the shard so iteration 0 already refills its chains.
	benchPost(b, hs, benchBody(0.19))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, hs, benchBody(benchLambda(i)))
	}
}

func BenchmarkServeSolveCacheHit(b *testing.B) {
	hs := newBenchServer(b, Config{})
	body := benchBody(0.4)
	benchPost(b, hs, body) // prime the memo
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, hs, body)
	}
}
