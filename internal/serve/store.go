package serve

import (
	"fmt"
	"sync"

	"repro/internal/sweep"
)

// store is the server's two-tier content-addressed answer store.
//
// The memo tier holds full SolveResponses — certificates and all — for
// every healthy answer this process produced. The disk tier is a PR 1
// sweep.Cache shared with gangsweep batch runs, read and written both
// ways: a sweep's trial answers requests for the same parameters with
// zero solver calls, and a served answer answers the sweep's trial. A
// served solve runs the default ladder through a session, which is
// bit-for-bit the one-shot solve, so sweep artifacts stay byte-identical
// whether or not a daemon shared the cache directory.
type store struct {
	mu   sync.Mutex
	memo map[string]*SolveResponse
	cap  int
	disk *sweep.Cache
}

func newStore(memoCap int, dir string, fsync bool) (*store, error) {
	s := &store{memo: make(map[string]*SolveResponse), cap: memoCap}
	if dir != "" {
		c, err := sweep.OpenCacheWith(dir, sweep.CacheOptions{Fsync: fsync})
		if err != nil {
			return nil, err
		}
		s.disk = c
	}
	return s, nil
}

// recovery reports what the disk tier's recovery-on-open found (zero
// when memo-only) — the /metrics surface for torn tails and quarantined
// records.
func (s *store) recovery() sweep.CacheRecovery {
	if s.disk == nil {
		return sweep.CacheRecovery{}
	}
	return s.disk.Recovery()
}

// get returns a stored answer and its tier ("memo" or "disk"); method is
// the request's, which a disk-tier value map does not record. The
// returned response is shared and must be treated as immutable; handlers
// copy the top-level struct before stamping per-request fields.
func (s *store) get(key string, method sweep.Method) (*SolveResponse, string, bool) {
	s.mu.Lock()
	resp, ok := s.memo[key]
	s.mu.Unlock()
	if ok {
		return resp, "memo", true
	}
	if s.disk == nil {
		return nil, "", false
	}
	values, ok := s.disk.Get(key)
	if !ok {
		return nil, "", false
	}
	return responseFromValues(key, method, values), "disk", true
}

// put stores a healthy answer in the memo and, when attached, the
// shared disk tier.
func (s *store) put(key string, resp *SolveResponse) error {
	s.mu.Lock()
	if _, ok := s.memo[key]; !ok && len(s.memo) < s.cap {
		s.memo[key] = resp
	}
	s.mu.Unlock()
	if s.disk != nil {
		return s.disk.Put(key, resp.values)
	}
	return nil
}

func (s *store) memoLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.memo)
}

func (s *store) diskLen() int {
	if s.disk == nil {
		return 0
	}
	return s.disk.Len()
}

func (s *store) close() error {
	if s.disk == nil {
		return nil
	}
	return s.disk.Close()
}

// responseFromValues rehydrates a response from the sweep cache's value
// map. The values tier stores numbers only, so the rehydrated classes
// carry no certificates — the response says so via CacheTier "disk".
func responseFromValues(key string, method sweep.Method, values map[string]float64) *SolveResponse {
	resp := &SolveResponse{
		Key:                key,
		Method:             method,
		Converged:          true,
		Iterations:         int(values["iterations"]),
		FixedPointResidual: values["fixedPointResidual"],
		TotalN:             values["totalN"],
		MeanCycle:          values["meanCycle"],
	}
	for p := 0; ; p++ {
		n, ok := values[fmt.Sprintf("N%d", p)]
		if !ok {
			break
		}
		ca := ClassAnswer{}
		if n != sweep.Unstable {
			ca.Stable = true
			ca.N = n
			ca.T = values[fmt.Sprintf("T%d", p)]
		}
		resp.Classes = append(resp.Classes, ca)
	}
	return resp
}
