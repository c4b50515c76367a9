package serve

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/sweep"
)

// metrics is the server's Prometheus-text-format instrumentation. All
// counters are atomics updated on the request path; the scrape path
// additionally pulls the live pipeline counters from every shard's
// session (race-safe via core.AtomicCounters) so /metrics reflects
// solver work the moment it happens, not when a request completes.
type metrics struct {
	mu       sync.Mutex
	requests map[string]*atomic.Int64 // "endpoint|code" → count

	memoHits  atomic.Int64
	diskHits  atomic.Int64
	coalesced atomic.Int64
	shed      atomic.Int64

	// trialSolves counts solves actually executed on a shard session —
	// cache hits and coalesced followers never reach a shard, so this is
	// the "analytic work happened" counter (the serving-side successor of
	// the old process-global core.SolveCalls).
	trialSolves atomic.Int64
	// rungs counts certified ladder-rung outcomes across all served
	// solves, keyed "rung|outcome" from the certificates' Path entries
	// ("newton: uncertified", "logreduction: ok", ...).
	rungMu sync.Mutex
	rungs  map[string]*atomic.Int64

	panicsHandler atomic.Int64
	panicsShard   atomic.Int64

	solveLatency *histogram
	sweepLatency *histogram
}

func newMetrics() *metrics {
	return &metrics{
		requests:     make(map[string]*atomic.Int64),
		rungs:        make(map[string]*atomic.Int64),
		solveLatency: newHistogram(),
		sweepLatency: newHistogram(),
	}
}

// panic records one contained panic; where is "handler" or "shard".
func (m *metrics) panic(where string) {
	if where == "shard" {
		m.panicsShard.Add(1)
	} else {
		m.panicsHandler.Add(1)
	}
}

// solveDone records one solve executed on a shard: the trial-solve
// counter and, from each class certificate's R-ladder Path, one
// outcome count per rung attempted. The Path entries are "rung: outcome"
// strings written by the QBD ladder, so the metric needs no new plumbing
// through the solver — it is a projection of data every answer already
// carries.
func (m *metrics) solveDone(resp *SolveResponse) {
	m.trialSolves.Add(1)
	for _, ca := range resp.Classes {
		if ca.Certificate == nil {
			continue
		}
		for _, entry := range ca.Certificate.Path {
			rung, outcome, ok := strings.Cut(entry, ": ")
			if !ok {
				continue
			}
			k := rung + "|" + outcome
			m.rungMu.Lock()
			c, have := m.rungs[k]
			if !have {
				c = new(atomic.Int64)
				m.rungs[k] = c
			}
			m.rungMu.Unlock()
			c.Add(1)
		}
	}
}

// request records one finished request: its status counter and, for the
// solver endpoints, its latency observation.
func (m *metrics) request(endpoint string, code int, elapsed time.Duration) {
	k := fmt.Sprintf("%s|%d", endpoint, code)
	m.mu.Lock()
	c, ok := m.requests[k]
	if !ok {
		c = new(atomic.Int64)
		m.requests[k] = c
	}
	m.mu.Unlock()
	c.Add(1)
	switch endpoint {
	case "solve":
		m.solveLatency.observe(elapsed.Seconds())
	case "sweep":
		m.sweepLatency.observe(elapsed.Seconds())
	}
}

func (m *metrics) cacheHit(tier string) {
	if tier == "disk" {
		m.diskHits.Add(1)
	} else {
		m.memoHits.Add(1)
	}
}

// write renders the exposition: request counters, cache/coalesce/shed
// counters, resilience counters (panics, disk-cache recovery), the live
// pipeline counters, store gauges, and the latency histograms. Output
// order is deterministic.
func (m *metrics) write(w io.Writer, pipeline core.Counters, memoLen, diskLen int, rec sweep.CacheRecovery) {
	fmt.Fprintf(w, "# HELP gangserved_requests_total Finished requests by endpoint and status code.\n")
	fmt.Fprintf(w, "# TYPE gangserved_requests_total counter\n")
	m.mu.Lock()
	keys := make([]string, 0, len(m.requests))
	for k := range m.requests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	counts := make([]int64, len(keys))
	for i, k := range keys {
		counts[i] = m.requests[k].Load()
	}
	m.mu.Unlock()
	for i, k := range keys {
		endpoint, code, _ := strings.Cut(k, "|")
		fmt.Fprintf(w, "gangserved_requests_total{endpoint=%q,code=%q} %s\n",
			endpoint, code, fmt.Sprint(counts[i]))
	}

	fmt.Fprintf(w, "# HELP gangserved_cache_hits_total Answers served from the content-addressed store with zero solver calls.\n")
	fmt.Fprintf(w, "# TYPE gangserved_cache_hits_total counter\n")
	fmt.Fprintf(w, "gangserved_cache_hits_total{tier=\"memo\"} %d\n", m.memoHits.Load())
	fmt.Fprintf(w, "gangserved_cache_hits_total{tier=\"disk\"} %d\n", m.diskHits.Load())
	fmt.Fprintf(w, "# HELP gangserved_coalesced_requests_total Requests that joined an identical in-flight solve.\n")
	fmt.Fprintf(w, "# TYPE gangserved_coalesced_requests_total counter\n")
	fmt.Fprintf(w, "gangserved_coalesced_requests_total %d\n", m.coalesced.Load())
	fmt.Fprintf(w, "# HELP gangserved_shed_requests_total Requests rejected by the admission token bucket.\n")
	fmt.Fprintf(w, "# TYPE gangserved_shed_requests_total counter\n")
	fmt.Fprintf(w, "gangserved_shed_requests_total %d\n", m.shed.Load())

	fmt.Fprintf(w, "# HELP gangserved_panics_total Panics contained to one request (handler middleware) or one task (shard worker; session recycled).\n")
	fmt.Fprintf(w, "# TYPE gangserved_panics_total counter\n")
	fmt.Fprintf(w, "gangserved_panics_total{where=\"handler\"} %d\n", m.panicsHandler.Load())
	fmt.Fprintf(w, "gangserved_panics_total{where=\"shard\"} %d\n", m.panicsShard.Load())

	fmt.Fprintf(w, "# HELP gangserved_cache_recovery Disk-cache recovery-on-open results: records quarantined to the .corrupt sidecar, torn-tail bytes truncated.\n")
	fmt.Fprintf(w, "# TYPE gangserved_cache_recovery gauge\n")
	fmt.Fprintf(w, "gangserved_cache_recovery{event=\"quarantined\"} %d\n", rec.Quarantined)
	fmt.Fprintf(w, "gangserved_cache_recovery{event=\"torn_bytes\"} %d\n", rec.TornBytes)

	fmt.Fprintf(w, "# HELP gangserved_trial_solves_total Solves executed on a shard session (cache hits and coalesced followers excluded).\n")
	fmt.Fprintf(w, "# TYPE gangserved_trial_solves_total counter\n")
	fmt.Fprintf(w, "gangserved_trial_solves_total %d\n", m.trialSolves.Load())

	fmt.Fprintf(w, "# HELP gangserved_ladder_rung_total Certified fallback-ladder rung outcomes across served solves, from certificate paths.\n")
	fmt.Fprintf(w, "# TYPE gangserved_ladder_rung_total counter\n")
	m.rungMu.Lock()
	rkeys := make([]string, 0, len(m.rungs))
	for k := range m.rungs {
		rkeys = append(rkeys, k)
	}
	sort.Strings(rkeys)
	rcounts := make([]int64, len(rkeys))
	for i, k := range rkeys {
		rcounts[i] = m.rungs[k].Load()
	}
	m.rungMu.Unlock()
	for i, k := range rkeys {
		rung, outcome, _ := strings.Cut(k, "|")
		fmt.Fprintf(w, "gangserved_ladder_rung_total{rung=%q,outcome=%q} %d\n", rung, outcome, rcounts[i])
	}

	fmt.Fprintf(w, "# HELP gangserved_pipeline_total Solver-pipeline counters summed over all shard sessions.\n")
	fmt.Fprintf(w, "# TYPE gangserved_pipeline_total counter\n")
	for _, kv := range []struct {
		stage string
		v     int
	}{
		{"builds", pipeline.Builds},
		{"refills", pipeline.Refills},
		{"solves", pipeline.Solves},
		{"r_iterations", pipeline.RIterations},
	} {
		fmt.Fprintf(w, "gangserved_pipeline_total{stage=%q} %d\n", kv.stage, kv.v)
	}

	fmt.Fprintf(w, "# HELP gangserved_store_entries Answers held per store tier.\n")
	fmt.Fprintf(w, "# TYPE gangserved_store_entries gauge\n")
	fmt.Fprintf(w, "gangserved_store_entries{tier=\"memo\"} %d\n", memoLen)
	fmt.Fprintf(w, "gangserved_store_entries{tier=\"disk\"} %d\n", diskLen)

	m.solveLatency.write(w, "gangserved_request_duration_seconds", "solve")
	m.sweepLatency.write(w, "gangserved_request_duration_seconds", "sweep")
}

// histogram is a fixed-bucket latency histogram in Prometheus
// cumulative-bucket form. Buckets span 500µs to 5s — a cache hit lands
// in the first bucket, a heavyweight multi-class solve in the middle,
// and a large sweep near the top.
type histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1, last is +Inf
	sumBits atomic.Uint64
	count   atomic.Int64
}

func newHistogram() *histogram {
	return &histogram{
		bounds: []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5},
		counts: make([]atomic.Int64, 14),
	}
}

func (h *histogram) observe(sec float64) {
	i := sort.SearchFloat64s(h.bounds, sec)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		new := math.Float64bits(math.Float64frombits(old) + sec)
		if h.sumBits.CompareAndSwap(old, new) {
			return
		}
	}
}

func (h *histogram) write(w io.Writer, name, endpoint string) {
	fmt.Fprintf(w, "# HELP %s Request latency.\n# TYPE %s histogram\n", name, name)
	cum := int64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{endpoint=%q,le=\"%g\"} %d\n", name, endpoint, b, cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{endpoint=%q,le=\"+Inf\"} %d\n", name, endpoint, cum)
	fmt.Fprintf(w, "%s_sum{endpoint=%q} %g\n", name, endpoint, math.Float64frombits(h.sumBits.Load()))
	fmt.Fprintf(w, "%s_count{endpoint=%q} %d\n", name, endpoint, cum)
}
