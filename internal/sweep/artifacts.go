package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// WriteArtifacts emits the run's machine-readable artifacts into dir:
//
//	manifest.json — spec hash, seed, per-trial status, cache hit rate, wall time
//	results.jsonl — one TrialResult per line, in trial order
//	results.csv   — the same results flattened to a spreadsheet-friendly grid
//
// results.jsonl and results.csv contain no execution metadata, so two
// runs of the same trials produce byte-identical files whatever the
// worker count or cache state.
func (r *Run) WriteArtifacts(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("sweep: artifacts dir: %w", err)
	}
	manifest, err := json.MarshalIndent(&r.Manifest, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), append(manifest, '\n'), 0o644); err != nil {
		return err
	}
	jsonl, err := r.ResultsJSONL()
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "results.jsonl"), jsonl, 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "results.csv"), []byte(r.ResultsCSV()), 0o644)
}

// sanitized returns the result as written to artifacts: any non-finite
// value is dropped (JSON has no NaN/Inf token, and a CSV "NaN" silently
// poisons downstream tooling) and noted in Err. The runner's value guard
// makes this unreachable in practice; the writer enforces it regardless,
// so artifact well-formedness does not depend on every producer's
// discipline.
func (tr *TrialResult) sanitized() TrialResult {
	clean := *tr
	var dropped []string
	for k, v := range tr.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			dropped = append(dropped, k)
		}
	}
	if len(dropped) == 0 {
		return clean
	}
	sort.Strings(dropped)
	clean.Values = make(map[string]float64, len(tr.Values))
	for k, v := range tr.Values {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			clean.Values[k] = v
		}
	}
	note := "non-finite values dropped: " + strings.Join(dropped, " ")
	if clean.Err != "" {
		note = clean.Err + "; " + note
	}
	clean.Err = note
	return clean
}

// ResultsJSONL renders the deterministic results artifact: one JSON
// object per trial, in trial order.
func (r *Run) ResultsJSONL() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range r.Results {
		clean := r.Results[i].sanitized()
		if err := enc.Encode(&clean); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// ResultsCSV flattens the results into a grid whose columns are the
// union of all point labels (sorted) followed by the union of all value
// names (sorted). Missing cells are empty.
func (r *Run) ResultsCSV() string {
	pointCols := map[string]bool{}
	valueCols := map[string]bool{}
	for _, res := range r.Results {
		for k := range res.Point {
			pointCols[k] = true
		}
		for k := range res.Values {
			valueCols[k] = true
		}
	}
	points := sortedKeys(pointCols)
	values := sortedKeys(valueCols)

	var b strings.Builder
	b.WriteString("index,method")
	for _, c := range points {
		b.WriteByte(',')
		b.WriteString(c)
	}
	for _, c := range values {
		b.WriteByte(',')
		b.WriteString(c)
	}
	b.WriteString(",err\n")
	for i := range r.Results {
		res := r.Results[i].sanitized()
		fmt.Fprintf(&b, "%d,%s", res.Index, res.Method)
		for _, c := range points {
			b.WriteByte(',')
			if v, ok := res.Point[c]; ok {
				fmt.Fprintf(&b, "%g", v)
			}
		}
		for _, c := range values {
			b.WriteByte(',')
			if v, ok := res.Values[c]; ok {
				fmt.Fprintf(&b, "%g", v)
			}
		}
		b.WriteByte(',')
		b.WriteString(strings.ReplaceAll(res.Err, ",", ";"))
		b.WriteByte('\n')
	}
	return b.String()
}

// Summary renders a one-paragraph human report of the run.
func (r *Run) Summary() string {
	m := &r.Manifest
	var b strings.Builder
	fmt.Fprintf(&b, "sweep %q: %d trials on %d workers in %s (%.1f trials/s)\n",
		m.Name, m.Trials, m.Workers, fmtMillis(m.WallMillis), m.TrialsPerSec)
	fmt.Fprintf(&b, "  executed %d, cache hits %d (%.0f%%), errors %d, panics %d, canceled %d\n",
		m.Executed, m.CacheHits, 100*m.CacheHitRate, m.Errors, m.Panics, m.Canceled)
	if p := m.Pipeline; p != nil && p.Solves > 0 {
		fmt.Fprintf(&b, "  pipeline: %d builds, %d refills, %d QBD solves, %.1f R iterations/solve\n",
			p.Builds, p.Refills, p.Solves, float64(p.RIterations)/float64(p.Solves))
	}
	return b.String()
}

func fmtMillis(ms int64) string {
	if ms < 1000 {
		return fmt.Sprintf("%dms", ms)
	}
	return fmt.Sprintf("%.2fs", float64(ms)/1000)
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
