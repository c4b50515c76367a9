package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/sweep"
)

// serveOpen is the gangserved-open workload: independent clients posting
// /v1/solve requests to the gangserved engine (default configuration:
// one warm shard per CPU, memo answer store, no admission limit) over
// loopback HTTP. Open loop at a fixed, paced rate: request i is due at
// i/serveRate seconds into the window and is sent then regardless of how
// fast answers come back, and each is timed from when it was due.
//
// The traffic is the serve package's own warm-shard benchmark workload
// (BenchmarkServeSolveWarm and BenchmarkServeSolveCacheHit): the
// two-class, four-processor scenario with order-2 arrivals, class 0's
// arrival rate walking the band [0.40, 0.45) by golden-ratio steps. Every
// fresh request has the same structural signature, so it lands on the
// same warm shard session, which refills its chains in place and
// warm-starts R from the previous request. Every fourth request repeats
// an earlier one and is answered from the memo (or joins the identical
// solve still in flight).
type serveOpen struct {
	rng *rand.Rand

	srv    *serve.Server
	hs     *http.Server
	url    string
	client *http.Client
	done   chan struct{} // closed when the HTTP server goroutine exits

	// spans maps a request id to its server-side handler span.
	spans sync.Map

	reqs  []serveReq
	resps []*serve.SolveResponse
}

// serveRate is the offered load in requests per second. A warm solve of
// this scenario costs about 8.5 ms (BENCH_serve.json, ServeSolveWarm) and
// a memo hit under 0.1 ms, so the one busy shard is occupied about 16% of
// the time: queues stay short and the latency measured is mostly service,
// not backlog.
const serveRate = 25

type serveReq struct {
	scenario sweep.Scenario
	body     []byte
	repeatOf int // index of the request this one repeats, or -1
}

// serveScenario is the serve benchmark's scenario with class 0 arriving
// at rate lambda.
func serveScenario(lambda float64) sweep.Scenario {
	return sweep.Scenario{Processors: 4, Classes: []sweep.ClassSpec{
		{Partition: 2, Lambda: lambda, Mu: 1, QuantumMean: 1, OverheadMean: 0.01, ArrivalSCV: 2},
		{Partition: 4, Lambda: 0.15, Mu: 1, QuantumMean: 1, OverheadMean: 0.01},
	}}
}

// serveBand maps u ∈ [0, 1) into the arrival-rate band [0.40, 0.45).
func serveBand(u float64) float64 { return 0.40 + 0.05*u }

func newServeOpen(rng *rand.Rand) workload { return &serveOpen{rng: rng} }

// serveBody is the JSON request for an analytic solve of sc with the
// engine's default solve parameters.
func serveBody(sc sweep.Scenario) []byte {
	body, err := json.Marshal(serve.SolveRequest{Scenario: sc})
	if err != nil {
		panic(err) // plain data, cannot fail
	}
	return body
}

// serveWarmups is how many solves set-up sends before the window.
const serveWarmups = 8

// setup starts a fresh engine behind a loopback HTTP server and warms
// the shard session with solves at evenly spaced points of the band, the
// same points for every seed (the window's golden-ratio walk starts at a
// seeded offset and never lands on them exactly).
func (w *serveOpen) setup() error {
	srv, err := serve.New(serve.Config{})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return err
	}
	w.srv = srv
	w.hs = &http.Server{Handler: w.spanHandler(srv.Handler())}
	w.url = "http://" + ln.Addr().String() + "/v1/solve"
	w.client = &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 64},
	}
	w.done = make(chan struct{})
	go func() {
		defer close(w.done)
		w.hs.Serve(ln)
	}()
	for k := 0; k < serveWarmups; k++ {
		if _, err := w.post(serveBody(serveScenario(serveBand(float64(k)/serveWarmups))), -1); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// spanHandler wraps the engine's handler to record each request's
// server-side span, keyed by the benchmark's request id header.
func (w *serveOpen) spanHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(rw, r)
		if id, err := strconv.Atoi(r.Header.Get("X-Perfbench-Id")); err == nil {
			w.spans.Store(id, time.Since(start))
		}
	})
}

func (w *serveOpen) post(body []byte, id int) (*serve.SolveResponse, error) {
	req, err := http.NewRequest(http.MethodPost, w.url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Perfbench-Id", strconv.Itoa(id))
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out serve.SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("status %d: %w", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	return &out, nil
}

// plan draws the request schedule for a window: paced due times and,
// per request, a new scenario or a repeat of a seeded earlier one. New
// scenarios walk the band by golden-ratio steps from a seeded start, so
// every seed covers the band evenly and offers the same mix of solve
// costs, while consecutive requests stay close.
func (w *serveOpen) plan(window time.Duration) []time.Duration {
	const phi = 0.6180339887498949
	var due []time.Duration
	var unique []int
	walk := w.rng.Float64()
	w.reqs = w.reqs[:0]
	for i := 0; ; i++ {
		t := time.Duration(i) * time.Second / serveRate
		if t >= window {
			break
		}
		r := serveReq{repeatOf: -1}
		if i%4 == 3 {
			r.repeatOf = unique[w.rng.Intn(len(unique))]
			r.scenario, r.body = w.reqs[r.repeatOf].scenario, w.reqs[r.repeatOf].body
		} else {
			r.scenario = serveScenario(serveBand(math.Mod(walk+float64(len(unique))*phi, 1)))
			r.body = serveBody(r.scenario)
			unique = append(unique, i)
		}
		w.reqs = append(w.reqs, r)
		due = append(due, t)
	}
	return due
}

func (w *serveOpen) run(deadline time.Time, rep *report) error {
	start := time.Now()
	due := w.plan(deadline.Sub(start))
	w.resps = make([]*serve.SolveResponse, len(due))
	type outcome struct {
		due, issued, done time.Time
		err               error
	}
	outs := make([]outcome, len(due))
	var wg sync.WaitGroup
	for i, d := range due {
		at := start.Add(d)
		time.Sleep(time.Until(at))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			issued := time.Now()
			resp, err := w.post(w.reqs[i].body, i)
			outs[i] = outcome{due: at, issued: issued, done: time.Now(), err: err}
			w.resps[i] = resp
		}(i)
	}
	wg.Wait()

	lc := &rep.layers
	for i, o := range outs {
		rep.attempted++
		if o.err != nil {
			rep.failed++
			fmt.Fprintf(os.Stderr, "gangserved-open: request %d (%+v): %v\n", i, w.reqs[i].scenario.Classes[0], o.err)
			continue
		}
		rep.op(o.due, o.issued, o.done)
		if d, ok := w.spans.Load(i); ok {
			lc.handlerMs += float64(d.(time.Duration)) / 1e6
		}
		resp := w.resps[i]
		if resp.Cached {
			lc.cacheHits++
		}
		if resp.Cached || resp.Coalesced {
			continue
		}
		c := resp.Counters
		lc.solves += float64(c.Solves)
		lc.rIters += float64(c.RIterations)
		lc.builds += float64(c.Builds)
		lc.refills += float64(c.Refills)
		lc.warmSolves += float64(c.WarmSolves)
		lc.warmAccepted += float64(c.WarmAccepted)
		lc.fpRounds += float64(resp.Iterations)
	}
	return nil
}

// verify checks every answer: converged, every class stable with a
// finite, non-negative population, a certificate on every freshly
// solved class, repeats identical to the answer they repeat, and a
// sample of the served answers (warm-started on the shards) matching a
// cold one-shot core.Solve of the same scenario within the fixed
// point's convergence tolerance.
func (w *serveOpen) verify() error {
	var fresh []int
	for i, resp := range w.resps {
		if resp == nil {
			continue
		}
		sc := w.reqs[i].scenario
		if !resp.Converged || len(resp.Classes) != len(sc.Classes) {
			return fmt.Errorf("request %d: converged=%v with %d classes", i, resp.Converged, len(resp.Classes))
		}
		for p, ca := range resp.Classes {
			if !ca.Stable || !(ca.N >= 0) || math.IsInf(ca.N, 0) {
				return fmt.Errorf("request %d class %d: stable=%v N=%v T=%v", i, p, ca.Stable, ca.N, ca.T)
			}
			if !resp.Cached && (ca.Certificate == nil || len(ca.Certificate.Path) == 0) {
				return fmt.Errorf("request %d class %d: solved without a certificate", i, p)
			}
		}
		if j := w.reqs[i].repeatOf; j >= 0 {
			if orig := w.resps[j]; orig != nil && orig.TotalN != resp.TotalN {
				return fmt.Errorf("request %d repeats %d but answered totalN %v, not %v", i, j, resp.TotalN, orig.TotalN)
			}
		} else {
			fresh = append(fresh, i)
		}
	}
	const samples = 24
	for s := 0; s < samples && s < len(fresh); s++ {
		i := fresh[s*len(fresh)/samples]
		m, err := w.reqs[i].scenario.Model()
		if err != nil {
			return err
		}
		res, err := core.Solve(m, core.SolveOptions{Parallel: 1})
		if err != nil {
			return fmt.Errorf("request %d: reference solve: %w", i, err)
		}
		for p, cr := range res.Classes {
			if got := w.resps[i].Classes[p].N; !relClose(got, cr.N, 1e-4) {
				return fmt.Errorf("request %d class %d: served N=%v, cold solve N=%v", i, p, got, cr.N)
			}
		}
	}
	return nil
}

// close stops the HTTP server and the engine and waits for both.
func (w *serveOpen) close() {
	if w.srv == nil {
		return
	}
	w.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	w.hs.Shutdown(ctx)
	<-w.done
	w.srv.Close()
	w.srv = nil
}
