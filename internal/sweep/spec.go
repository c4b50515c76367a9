// Package sweep is the parallel experiment harness: it expands a
// declarative sweep specification (a base scenario plus parameter axes)
// into a grid of trials, executes the grid on a worker pool with
// per-trial panic isolation and one attempt per trial, caches converged
// results under content-addressed keys (in memory and on disk), and emits
// machine-readable run artifacts (manifest, JSONL, CSV).
//
// Every figure of the paper's evaluation (§5) is a parameter sweep —
// arrival rate, quantum mean, overhead, partition mix — and the harness
// is the single execution path for all of them: internal/experiments
// routes its figure grids through RunTrials, and cmd/gangsweep exposes
// JSON specs on the command line. Trials are deterministic (a fixed seed
// and parameter set always produce the same numbers), so a trial's
// canonical content hash fully identifies its result and re-runs or
// interrupted sweeps are incremental against a warm cache.
package sweep

import (
	"encoding/json"
	"fmt"
	"math"
	"os"

	"repro/internal/core"
	"repro/internal/phase"
)

// Method selects the solver a trial runs.
type Method string

const (
	// MethodAnalytic is the converged Theorem 4.3 fixed point.
	MethodAnalytic Method = "analytic"
	// MethodHeavy is the Theorem 4.1 heavy-traffic solution only.
	MethodHeavy Method = "heavy"
	// MethodSim is the discrete-event simulation of the §3.1 policy.
	MethodSim Method = "sim"
	// MethodExact2 is the exact joint two-class solution (footnote 2).
	MethodExact2 Method = "exact2"
)

func (m Method) valid() bool {
	switch m {
	case MethodAnalytic, MethodHeavy, MethodSim, MethodExact2:
		return true
	}
	return false
}

// ClassSpec is the scalar description of one job class, from which the
// phase-type model parameters are built. Rates (Lambda, Mu) and means
// (QuantumMean, OverheadMean) mirror the paper's §5 parameterization; an
// SCV of 0 or 1 yields an exponential distribution, anything else a
// two-moment phase-type fit.
type ClassSpec struct {
	// Partition is g(p), the processors per class-p job.
	Partition int `json:"partition"`
	// Lambda is the arrival-epoch rate 1/E[A_p].
	Lambda float64 `json:"lambda"`
	// Mu is the service rate 1/E[B_p].
	Mu float64 `json:"mu"`
	// QuantumMean is E[G_p].
	QuantumMean float64 `json:"quantumMean"`
	// OverheadMean is E[C_p], the context-switch cost after the slice.
	OverheadMean float64 `json:"overheadMean"`
	// ArrivalSCV, ServiceSCV, QuantumSCV, OverheadSCV choose the
	// distribution shapes (0 or 1 = exponential).
	ArrivalSCV  float64 `json:"arrivalSCV,omitempty"`
	ServiceSCV  float64 `json:"serviceSCV,omitempty"`
	QuantumSCV  float64 `json:"quantumSCV,omitempty"`
	OverheadSCV float64 `json:"overheadSCV,omitempty"`
	// Batch, when non-empty, is the bulk-arrival size distribution
	// (Batch[k] = P[batch of k+1 jobs]).
	Batch []float64 `json:"batch,omitempty"`
}

// Scenario is a fully resolved system description — the JSON-friendly
// counterpart of core.Model.
type Scenario struct {
	Processors int         `json:"processors"`
	Classes    []ClassSpec `json:"classes"`
}

// Model builds the core.Model the solvers and simulator consume.
func (s Scenario) Model() (*core.Model, error) {
	m := &core.Model{Processors: s.Processors}
	for i, c := range s.Classes {
		ar, err := distFor(1/c.Lambda, c.ArrivalSCV)
		if err != nil {
			return nil, fmt.Errorf("sweep: class %d arrival: %w", i, err)
		}
		sv, err := distFor(1/c.Mu, c.ServiceSCV)
		if err != nil {
			return nil, fmt.Errorf("sweep: class %d service: %w", i, err)
		}
		qu, err := distFor(c.QuantumMean, c.QuantumSCV)
		if err != nil {
			return nil, fmt.Errorf("sweep: class %d quantum: %w", i, err)
		}
		oh, err := distFor(c.OverheadMean, c.OverheadSCV)
		if err != nil {
			return nil, fmt.Errorf("sweep: class %d overhead: %w", i, err)
		}
		m.Classes = append(m.Classes, core.ClassParams{
			Partition: c.Partition,
			Arrival:   ar, Service: sv, Quantum: qu, Overhead: oh,
			Batch: c.Batch,
		})
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// distFor builds a distribution with the given mean; scv 0 or 1 means
// exponential, otherwise a two-moment fit.
func distFor(mean, scv float64) (*phase.Dist, error) {
	// A zero rate inverts to mean +Inf, which would otherwise slip past
	// the positivity check and panic in the phase constructors.
	if !(mean > 0) || math.IsInf(mean, 0) {
		return nil, fmt.Errorf("mean %g, want finite > 0", mean)
	}
	if scv == 0 || scv == 1 {
		return phase.Exponential(1 / mean), nil
	}
	return phase.FitMeanSCV(mean, scv)
}

// Axis is one swept parameter. The cartesian product of all axes forms
// the trial grid.
type Axis struct {
	// Param names the swept quantity: "lambda", "mu", "quantum",
	// "overhead", "arrivalSCV", "serviceSCV", "quantumSCV" or
	// "overheadSCV". Rates apply as rates, means as means.
	Param string `json:"param"`
	// Class restricts the axis to one class index; nil applies the value
	// to every class.
	Class *int `json:"class,omitempty"`
	// Values are the grid points along this axis.
	Values []float64 `json:"values"`
}

// label is the Point key this axis writes, e.g. "quantum" or "lambda[2]".
func (a Axis) label() string {
	if a.Class == nil {
		return a.Param
	}
	return fmt.Sprintf("%s[%d]", a.Param, *a.Class)
}

// apply writes value v into the scenario.
func (a Axis) apply(s *Scenario, v float64) error {
	set := func(c *ClassSpec) error {
		switch a.Param {
		case "lambda":
			c.Lambda = v
		case "mu":
			c.Mu = v
		case "quantum":
			c.QuantumMean = v
		case "overhead":
			c.OverheadMean = v
		case "arrivalSCV":
			c.ArrivalSCV = v
		case "serviceSCV":
			c.ServiceSCV = v
		case "quantumSCV":
			c.QuantumSCV = v
		case "overheadSCV":
			c.OverheadSCV = v
		default:
			return fmt.Errorf("sweep: unknown axis param %q", a.Param)
		}
		return nil
	}
	if a.Class != nil {
		if *a.Class < 0 || *a.Class >= len(s.Classes) {
			return fmt.Errorf("sweep: axis %q class %d outside [0, %d)", a.Param, *a.Class, len(s.Classes))
		}
		return set(&s.Classes[*a.Class])
	}
	for i := range s.Classes {
		if err := set(&s.Classes[i]); err != nil {
			return err
		}
	}
	return nil
}

// SolveParams is the JSON-friendly subset of core.SolveOptions carried
// by a trial (the QBD R-matrix options keep their defaults).
type SolveParams struct {
	FixedPointTol float64 `json:"fixedPointTol,omitempty"`
	MaxIterations int     `json:"maxIterations,omitempty"`
	MaxFitOrder   int     `json:"maxFitOrder,omitempty"`
	TailEps       float64 `json:"tailEps,omitempty"`
	TruncationCap int     `json:"truncationCap,omitempty"`
	// ExactTruncation caps the joint state space of MethodExact2.
	ExactTruncation int `json:"exactTruncation,omitempty"`
}

// SolveParamsFrom projects core.SolveOptions onto the serializable
// subset.
func SolveParamsFrom(o core.SolveOptions) SolveParams {
	return SolveParams{
		FixedPointTol: o.FixedPointTol,
		MaxIterations: o.MaxIterations,
		MaxFitOrder:   o.MaxFitOrder,
		TailEps:       o.TailEps,
		TruncationCap: o.TruncationCap,
	}
}

// CoreOptions expands the serializable subset into core.SolveOptions
// (the QBD R-matrix options keep their defaults). Exported for
// internal/serve, whose shards drive core Sessions from wire-format
// trials.
func (p SolveParams) CoreOptions() core.SolveOptions { return p.coreOptions() }

func (p SolveParams) coreOptions() core.SolveOptions {
	return core.SolveOptions{
		FixedPointTol: p.FixedPointTol,
		MaxIterations: p.MaxIterations,
		MaxFitOrder:   p.MaxFitOrder,
		TailEps:       p.TailEps,
		TruncationCap: p.TruncationCap,
	}
}

// SimParams configure MethodSim trials.
type SimParams struct {
	// Warmup and Horizon default to the experiment-package values
	// (2e4 / 2.2e5) when zero.
	Warmup  float64 `json:"warmup,omitempty"`
	Horizon float64 `json:"horizon,omitempty"`
	// Batches sets the batch-means count for confidence intervals.
	Batches int `json:"batches,omitempty"`
	// LocalSwitch enables the §6 local-switching variant.
	LocalSwitch bool `json:"localSwitch,omitempty"`
}

// Spec is a declarative sweep: a base scenario, the axes to sweep, and
// the methods to run at every grid point.
type Spec struct {
	Name string   `json:"name"`
	Base Scenario `json:"base"`
	Axes []Axis   `json:"axes"`
	// Methods default to [analytic].
	Methods []Method `json:"methods,omitempty"`
	// Seed is the simulation seed. Zero is a valid, honored seed: the
	// spec is explicit, there is no "unset" sentinel here.
	Seed  int64       `json:"seed"`
	Solve SolveParams `json:"solve,omitempty"`
	Sim   SimParams   `json:"sim,omitempty"`
}

// LoadSpec reads and validates a JSON spec file.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	return ParseSpec(data)
}

// ParseSpec decodes and validates a JSON spec.
func ParseSpec(data []byte) (*Spec, error) {
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("sweep: parsing spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks the spec's structure (the scenario itself is validated
// at trial-build time, after axis substitution).
func (s *Spec) Validate() error {
	if len(s.Base.Classes) == 0 {
		return fmt.Errorf("sweep: spec %q has no classes", s.Name)
	}
	for _, m := range s.Methods {
		if !m.valid() {
			return fmt.Errorf("sweep: spec %q: unknown method %q", s.Name, m)
		}
	}
	for i, a := range s.Axes {
		if len(a.Values) == 0 {
			return fmt.Errorf("sweep: spec %q axis %d (%s) has no values", s.Name, i, a.Param)
		}
		// Apply the first value to a scratch copy to surface bad param
		// names and class indices before the run starts.
		scratch := s.Base.clone()
		if err := a.apply(&scratch, a.Values[0]); err != nil {
			return err
		}
	}
	return nil
}

func (s Scenario) clone() Scenario {
	out := s
	out.Classes = make([]ClassSpec, len(s.Classes))
	copy(out.Classes, s.Classes)
	for i, c := range s.Classes {
		if len(c.Batch) > 0 {
			out.Classes[i].Batch = append([]float64(nil), c.Batch...)
		}
	}
	return out
}

// Trial is one fully resolved unit of work: a scenario, a method, and
// the execution parameters that affect its numbers. Trials are plain
// data, so a canonical content hash (Key) fully identifies the result.
type Trial struct {
	Scenario Scenario    `json:"scenario"`
	Method   Method      `json:"method"`
	Seed     int64       `json:"seed,omitempty"`
	Solve    SolveParams `json:"solve,omitempty"`
	Sim      SimParams   `json:"sim,omitempty"`
	// Point labels the trial's grid coordinates for artifacts and table
	// assembly; it does not participate in the content hash.
	Point map[string]float64 `json:"point,omitempty"`
}

// Expand materializes the cartesian product of the spec's axes times its
// methods, in deterministic order: the first axis varies slowest, the
// method fastest.
func (s *Spec) Expand() ([]Trial, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	methods := s.Methods
	if len(methods) == 0 {
		methods = []Method{MethodAnalytic}
	}
	idx := make([]int, len(s.Axes))
	var trials []Trial
	for {
		sc := s.Base.clone()
		point := make(map[string]float64, len(s.Axes))
		for i, a := range s.Axes {
			v := a.Values[idx[i]]
			if err := a.apply(&sc, v); err != nil {
				return nil, err
			}
			point[a.label()] = v
		}
		for _, m := range methods {
			t := Trial{Scenario: sc, Method: m, Point: point, Solve: s.Solve}
			if m == MethodSim {
				t.Seed = s.Seed
				t.Sim = s.Sim
			}
			trials = append(trials, t)
		}
		// Odometer increment, last axis fastest.
		i := len(idx) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(s.Axes[i].Values) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			break
		}
	}
	return trials, nil
}
