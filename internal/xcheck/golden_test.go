package xcheck

import (
	"reflect"
	"testing"
)

const goldenReport = "../../xcheck-report.json"

// TestGoldenReportCorpus pins the committed corpus report to the
// generator: the report must be fully green, and regenerating the corpus
// from its recorded (seed, n) must reproduce every case's identity.
// This is the cheap half of the determinism story — scenario content
// addresses are SHA-256 of the canonical JSON, so any generator drift
// (a reordered draw, a changed range) breaks it immediately.
func TestGoldenReportCorpus(t *testing.T) {
	rep, err := LoadReport(goldenReport)
	if err != nil {
		t.Fatalf("committed corpus report missing (regenerate with `make xcheck`): %v", err)
	}
	if rep.N < 200 {
		t.Fatalf("committed corpus has %d cases, want >= 200", rep.N)
	}
	if rep.Agree != rep.N || rep.Disagree != 0 || rep.Errors != 0 {
		t.Fatalf("committed corpus not green: agree=%d disagree=%d errors=%d of %d (broken: %v)",
			rep.Agree, rep.Disagree, rep.Errors, rep.N, rep.FailedCheckNames())
	}
	if rep.MaxMargin >= 1 {
		t.Fatalf("committed corpus MaxMargin %g >= 1 yet claims green", rep.MaxMargin)
	}
	if len(rep.Cases) != rep.N {
		t.Fatalf("report has %d case lines for n=%d", len(rep.Cases), rep.N)
	}
	cases := Generate(rep.Seed, rep.N)
	for i, c := range cases {
		if rep.Cases[i].Index != i || rep.Cases[i].ID != c.ID {
			t.Fatalf("case %d drifted: report has (%d, %s), generator gives (%d, %s)",
				i, rep.Cases[i].Index, rep.Cases[i].ID, i, c.ID)
		}
	}
}

// TestGoldenReportCaseRecompute re-runs corpus cases end to end with
// the report's recorded params and demands each compact line — statuses,
// check counts, and the exact float margins — match the committed line
// byte-for-byte semantics (encoding/json round-trips float64 exactly).
// Case 9 is the corpus's first all-exponential case, a single class;
// cases 6 and 105 have two classes, so a change to the Theorem 4.3
// fixed point, which only couples classes, moves them. All three stay
// cheap in tier-1.
func TestGoldenReportCaseRecompute(t *testing.T) {
	rep, err := LoadReport(goldenReport)
	if err != nil {
		t.Fatalf("committed corpus report missing (regenerate with `make xcheck`): %v", err)
	}
	cases := Generate(rep.Seed, rep.N)
	for _, i := range []int{9, 6, 105} {
		fresh := CheckCase(cases[i], rep.Params)
		line := fresh.Line(cases[i])
		if !reflect.DeepEqual(line, rep.Cases[i]) {
			t.Fatalf("case %d recompute drifted from the committed report:\n fresh:     %+v\n committed: %+v",
				i, line, rep.Cases[i])
		}
	}
}
