package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
)

// Key returns the trial's content-addressed cache key: a hex SHA-256 of
// the canonical JSON of everything that determines its numbers. Fields
// irrelevant to the trial's method are zeroed first (the seed and
// simulation parameters for analytic methods, the solver parameters for
// simulation), so e.g. an analytic trial re-run under a different seed
// still hits the cache. The Point labels never participate: they name
// the trial, they don't change it.
//
// encoding/json marshals struct fields in declaration order and map keys
// sorted, so the encoding is canonical for the plain-data types involved.
func (t Trial) Key() string {
	h := t // shallow copy; only scalar fields are modified below
	h.Point = nil
	switch t.Method {
	case MethodSim:
		h.Solve = SolveParams{}
	case MethodExact2:
		h.Seed = 0
		h.Sim = SimParams{}
		// Only the truncation matters to the exact joint solve.
		h.Solve = SolveParams{ExactTruncation: t.Solve.ExactTruncation}
	default:
		h.Seed = 0
		h.Sim = SimParams{}
		h.Solve.ExactTruncation = 0
	}
	return hashJSON(h)
}

// StructuralKey fingerprints everything about a trial that determines
// its solver structure — method, processors, partitioning, distribution
// shapes (SCVs), batch support — with the rates-only parameters
// (lambda, mu, quantum/overhead means, batch probabilities) zeroed out.
// Trials with equal keys build identical state spaces, so a session can
// refill their generators in place; keying on the SCVs is conservative
// (distinct SCVs can fit the same phase order), which only costs reuse,
// never correctness. Exported for internal/serve, which shards requests
// onto sessions by this key.
func StructuralKey(t Trial) string {
	sc := t.Scenario.clone()
	for i := range sc.Classes {
		c := &sc.Classes[i]
		c.Lambda, c.Mu, c.QuantumMean, c.OverheadMean = 0, 0, 0, 0
		for j := range c.Batch {
			c.Batch[j] = 0
		}
	}
	b, err := json.Marshal(struct {
		Method   Method
		Scenario Scenario
	}{t.Method, sc})
	if err != nil {
		// Scenario is plain data; Marshal cannot fail. Fall back to one
		// group per method rather than panicking.
		return string(t.Method)
	}
	return string(b)
}

// Hash fingerprints the whole spec (recorded in the run manifest).
func (s *Spec) Hash() string { return hashJSON(s) }

// Key returns the scenario's content address: a hex SHA-256 of its
// canonical JSON. The xcheck corpus uses it to name scenarios in reports
// and triage artifacts — the same scenario always gets the same id, no
// matter which seed or corpus index produced it, and the id commutes
// with Trial.Key (a Trial embeds the Scenario verbatim).
func (s Scenario) Key() string { return hashJSON(s) }

func hashJSON(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		// All hashed types are plain data; a marshal failure is a
		// programming error.
		panic("sweep: canonical marshal: " + err.Error())
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
