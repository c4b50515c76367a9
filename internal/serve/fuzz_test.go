package serve

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/certify"
)

// FuzzDecodeSolveRequest fuzzes the daemon's request decoder with
// arbitrary bodies at varying size limits. The invariant is the one the
// handler's status mapping relies on: every rejection is a typed
// certify.ErrConfig (→ 400), never a panic and never an untyped error
// that would surface as a 500. Accepted requests must expand to a trial
// whose scenario validates.
func FuzzDecodeSolveRequest(f *testing.F) {
	f.Add(`{"scenario":{"processors":2,"classes":[{"partition":1,"lambda":0.4,"mu":1,"quantumMean":1,"overheadMean":0.01}]}}`, int64(1<<20))
	f.Add(`{"scenario":{"processors":8,"classes":[{"partition":2,"lambda":0.4,"mu":1,"quantumMean":1,"overheadMean":0.01},{"partition":4,"lambda":0.1,"mu":0.5,"quantumMean":2,"overheadMean":0.05}]},"method":"heavy","timeoutMillis":500}`, int64(1<<20))
	f.Add(`{"scenario":{"processors":2,"classes":[{"partition":1,"lambda":1e999,"mu":1,"quantumMean":1,"overheadMean":0.01}]}}`, int64(1<<20))
	f.Add(`{"scenario":{"processors":2,"classes":[{"partition":1,"lambda":-0.4,"mu":0,"quantumMean":1,"overheadMean":0.01}]}}`, int64(1<<20))
	f.Add(`{"unknown":true}`, int64(1<<20))
	f.Add(`{"solve":{"maxIterations":-1,"tolerance":"no"}}`, int64(1<<20))
	f.Add(``, int64(1<<20))
	f.Add(`nul`, int64(64))
	f.Add(`{"scenario":{}}{"scenario":{}}`, int64(1<<20))
	f.Add(strings.Repeat(`[`, 4096), int64(1<<20))
	f.Add(`{"scenario":{"processors":2,"classes":[{"partition":1,"lambda":0.4,"mu":1,"quantumMean":1,"overheadMean":0.01}]}}`, int64(8))

	f.Fuzz(func(t *testing.T, body string, maxBytes int64) {
		if maxBytes < 0 {
			maxBytes = -maxBytes
		}
		maxBytes %= 1 << 21
		req, err := DecodeSolveRequest(strings.NewReader(body), maxBytes)
		if err != nil {
			if !errors.Is(err, certify.ErrConfig) {
				t.Fatalf("rejection is not a typed config error: %v", err)
			}
			return
		}
		// Accepted request: the trial it expands to must be coherent —
		// a model builds and the solve options validate.
		trial := req.trial()
		if _, merr := trial.Scenario.Model(); merr != nil {
			t.Fatalf("decoder accepted a scenario its own validation should reject: %v\n%s", merr, body)
		}
		if verr := trial.Solve.CoreOptions().Validate(); verr != nil {
			t.Fatalf("decoder accepted solve options that do not validate: %v\n%s", verr, body)
		}
		if trial.Key() == "" {
			t.Fatal("accepted request has empty content key")
		}
	})
}
