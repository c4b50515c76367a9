package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/certify"
	"repro/internal/core"
	"repro/internal/sweep"
)

// SolveRequest is the wire format of POST /v1/solve: one scenario, one
// method, one answer. The scenario and solver parameters are exactly the
// sweep package's wire types, so a served solve and a sweep trial with
// the same parameters share one content-addressed cache key.
type SolveRequest struct {
	Scenario sweep.Scenario `json:"scenario"`
	// Method is "analytic" (default when empty) or "heavy". The
	// simulation and exact2 methods are batch-only: they gain nothing
	// from a shard's session, so they stay on the sweep endpoint.
	Method sweep.Method      `json:"method,omitempty"`
	Solve  sweep.SolveParams `json:"solve,omitempty"`
	// AllowDegraded opts this request into a 200 with "degraded":true —
	// per-class simulation fallback values — when a class's analytic
	// solve fails certification. The server must also be started with
	// degradation enabled; without both opt-ins the failure is an error
	// status.
	AllowDegraded bool `json:"allowDegraded,omitempty"`
	// TimeoutMillis caps this request's time in the solver, overriding
	// the server default. The deadline maps onto context cancellation: a
	// request whose context expires before its shard picks it up is never
	// solved; one already solving runs to completion (solves are
	// milliseconds) but its waiter returns 504.
	TimeoutMillis int64 `json:"timeoutMillis,omitempty"`
}

// trial is the request as a cacheable unit of work: Trial.Key() is the
// answer-store key and sweep.StructuralKey the shard-routing key.
func (r *SolveRequest) trial() sweep.Trial {
	m := r.Method
	if m == "" {
		m = sweep.MethodAnalytic
	}
	return sweep.Trial{Scenario: r.Scenario, Method: m, Solve: r.Solve}
}

// validate rejects requests no solver should see. Every failure is a
// typed certify.ErrConfig so the handler maps it to 400, never 500.
func (r *SolveRequest) validate() error {
	switch r.Method {
	case "", sweep.MethodAnalytic, sweep.MethodHeavy:
	default:
		return confErrf("method %q not served (want analytic or heavy)", r.Method)
	}
	if r.TimeoutMillis < 0 {
		return confErrf("timeoutMillis %d is negative", r.TimeoutMillis)
	}
	if len(r.Scenario.Classes) == 0 {
		return confErrf("scenario has no classes")
	}
	for i, c := range r.Scenario.Classes {
		vals := []float64{c.Lambda, c.Mu, c.QuantumMean, c.OverheadMean,
			c.ArrivalSCV, c.ServiceSCV, c.QuantumSCV, c.OverheadSCV}
		vals = append(vals, c.Batch...)
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return confErrf("class %d has a non-finite parameter", i)
			}
		}
	}
	for _, v := range []float64{r.Solve.FixedPointTol, r.Solve.TailEps} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return confErrf("solve options have a non-finite parameter")
		}
	}
	// Deep validation (partitions divide P, rates positive, option
	// ranges) reuses the model layer's own typed checks, so the decoder
	// and the solver can never disagree about what is well-formed.
	if _, err := r.Scenario.Model(); err != nil {
		return &certify.Failure{Kind: certify.ErrConfig, Stage: "serve.request", Err: err}
	}
	if err := r.Solve.CoreOptions().Validate(); err != nil {
		return err
	}
	return nil
}

// SweepRequest is the wire format of POST /v1/sweep: a full declarative
// sweep spec plus execution policy. Sweeps run on the shared answer
// store, and their artifacts are byte-identical to a gangsweep batch run
// of the same spec.
type SweepRequest struct {
	Spec sweep.Spec `json:"spec"`
	// Workers caps the sweep worker pool (further capped by the server's
	// configured maximum).
	Workers int `json:"workers,omitempty"`
	// Strict and AllowDegraded mirror the gangsweep flags; AllowDegraded
	// additionally requires the server-side opt-in.
	Strict        bool  `json:"strict,omitempty"`
	AllowDegraded bool  `json:"allowDegraded,omitempty"`
	TimeoutMillis int64 `json:"timeoutMillis,omitempty"`
}

func (r *SweepRequest) validate() error {
	if r.TimeoutMillis < 0 {
		return confErrf("timeoutMillis %d is negative", r.TimeoutMillis)
	}
	if r.Strict && r.AllowDegraded {
		return confErrf("strict and allowDegraded are mutually exclusive")
	}
	if r.Workers < 0 {
		return confErrf("workers %d is negative", r.Workers)
	}
	if err := r.Spec.Validate(); err != nil {
		return &certify.Failure{Kind: certify.ErrConfig, Stage: "serve.request", Err: err}
	}
	return nil
}

// ClassAnswer is one class's slice of a SolveResponse.
type ClassAnswer struct {
	Stable bool    `json:"stable"`
	N      float64 `json:"n"`
	T      float64 `json:"t"`
	Rho    float64 `json:"rho"`
	// SpectralRadiusR is the geometric tail decay rate sp(R).
	SpectralRadiusR float64 `json:"spectralRadiusR,omitempty"`
	// Degraded marks values produced by the simulation fallback instead
	// of a certified analytic solve.
	Degraded bool `json:"degraded,omitempty"`
	// Certificate is the class's machine-checkable validity record; its
	// Path records the R ladder's rungs.
	Certificate *certify.Certificate `json:"certificate,omitempty"`
	// Error and Kind carry a failed class's typed failure when the
	// request opted into degradation.
	Error string `json:"error,omitempty"`
	Kind  string `json:"kind,omitempty"`
}

// SolveResponse is the wire format of a served solve.
type SolveResponse struct {
	// Key is the content-addressed identity of the answer — the same
	// SHA-256 a gangsweep trial of these parameters would be cached
	// under.
	Key        string       `json:"key"`
	Method     sweep.Method `json:"method"`
	Converged  bool         `json:"converged"`
	Iterations int          `json:"iterations"`
	// FixedPointResidual is the fixed point's last-round residual
	// (core.Result.FixedPointResidual): below the request's tolerance
	// when converged.
	FixedPointResidual float64       `json:"fixedPointResidual"`
	TotalN             float64       `json:"totalN"`
	MeanCycle          float64       `json:"meanCycle"`
	Classes            []ClassAnswer `json:"classes"`
	// Degraded is true when any class fell back to simulation.
	Degraded bool `json:"degraded,omitempty"`
	// Cached marks an answer served from the answer store with zero
	// solver calls; CacheTier says which tier ("memo" holds full
	// responses with certificates, "disk" is the gangsweep-shared value
	// store, so certificates are absent).
	Cached    bool   `json:"cached,omitempty"`
	CacheTier string `json:"cacheTier,omitempty"`
	// Coalesced marks a request that joined an identical in-flight solve
	// instead of triggering its own.
	Coalesced bool `json:"coalesced,omitempty"`
	// Shard is the session worker that produced the answer;
	// requests with equal structural signatures always report the same
	// shard.
	Shard int `json:"shard"`
	// Counters are the solver-pipeline statistics of this solve (zero
	// for cached answers): chain builds vs refills, QBD solves, R
	// iterations.
	Counters      core.Counters `json:"counters"`
	ElapsedMillis int64         `json:"elapsedMillis"`

	// values is the solve's sweep-cache value map, what the disk tier
	// stores for a healthy answer; nil for a rehydrated one.
	values map[string]float64
}

// SweepResponse is the wire format of a served sweep.
type SweepResponse struct {
	Manifest sweep.Manifest      `json:"manifest"`
	Results  []sweep.TrialResult `json:"results"`
}

// errorBody is the JSON shape of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
	// Kind is the failure-taxonomy label ("config", "not-converged",
	// ...) driving the HTTP status.
	Kind   string `json:"kind,omitempty"`
	Status int    `json:"status"`
}

func confErrf(format string, args ...any) error {
	return &certify.Failure{
		Kind:  certify.ErrConfig,
		Stage: "serve.request",
		Err:   fmt.Errorf(format, args...),
	}
}

// decodeJSON reads at most maxBytes from r and strictly decodes one JSON
// document into v: unknown fields, trailing data, non-finite numbers
// (via the caller's validate) and oversized bodies are all typed
// certify.ErrConfig — a malformed request is the client's configuration
// mistake, never a 500.
func decodeJSON(r io.Reader, maxBytes int64, v any) error {
	data, err := io.ReadAll(io.LimitReader(r, maxBytes+1))
	if err != nil {
		// An http.MaxBytesReader upstream or a dead client both land
		// here; either way the request cannot be honored as sent.
		return &certify.Failure{Kind: certify.ErrConfig, Stage: "serve.request",
			Err: fmt.Errorf("reading body: %w", err)}
	}
	if int64(len(data)) > maxBytes {
		return confErrf("body exceeds %d bytes", maxBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return &certify.Failure{Kind: certify.ErrConfig, Stage: "serve.request",
			Err: fmt.Errorf("decoding request: %w", err)}
	}
	if dec.More() {
		return confErrf("trailing data after request body")
	}
	return nil
}

// DecodeSolveRequest strictly decodes and validates a solve request.
// Any error satisfies errors.Is(err, certify.ErrConfig).
func DecodeSolveRequest(r io.Reader, maxBytes int64) (*SolveRequest, error) {
	var req SolveRequest
	if err := decodeJSON(r, maxBytes, &req); err != nil {
		return nil, err
	}
	if err := req.validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

// DecodeSweepRequest strictly decodes and validates a sweep request.
// Any error satisfies errors.Is(err, certify.ErrConfig).
func DecodeSweepRequest(r io.Reader, maxBytes int64) (*SweepRequest, error) {
	var req SweepRequest
	if err := decodeJSON(r, maxBytes, &req); err != nil {
		return nil, err
	}
	if err := req.validate(); err != nil {
		return nil, err
	}
	return &req, nil
}
