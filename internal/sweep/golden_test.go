package sweep

import (
	"bytes"
	"context"
	"flag"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata goldens from the current code")

const cold64Golden = "testdata/cold64.results.jsonl"

// TestColdGridGolden pins the cold 64-trial grid (benchSpec, no cache)
// to its committed results.jsonl byte for byte, on one worker and on
// three: each worker threads its own session through whichever trials
// it takes, so the answers must not depend on the worker count. Every
// solver change that claims to keep answers bit-identical must pass it
// unedited. The pin holds on amd64 only: elsewhere the compiler may
// fuse a multiply and an add into one rounding, which moves low bits.
func TestColdGridGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("bitwise golden recorded on amd64; GOARCH=%s may fuse multiply-adds", runtime.GOARCH)
	}
	for _, workers := range []int{1, 3} {
		run, err := Execute(context.Background(), benchSpec(), Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got, err := run.ResultsJSONL()
		if err != nil {
			t.Fatal(err)
		}
		if *updateGolden && workers == 1 {
			if err := os.WriteFile(cold64Golden, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(cold64Golden)
		if err != nil {
			t.Fatalf("golden missing (regenerate with `go test -run TestColdGridGolden -update`): %v", err)
		}
		if !bytes.Equal(got, want) {
			gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if !bytes.Equal(gl[i], wl[i]) {
					t.Fatalf("workers=%d: results.jsonl line %d drifted from %s:\n got:  %s\n want: %s", workers, i+1, cold64Golden, gl[i], wl[i])
				}
			}
			t.Fatalf("workers=%d: results.jsonl has %d lines, golden %d", workers, len(gl), len(wl))
		}
	}
}

// TestColdGridStopsAtFixedPoints: every cold-grid answer is a fixed
// point — its residual is below the default tolerance — and trial
// 20c5318c, one whose every round-2 input repeats round 1 because a class
// is unstable under the heavy-traffic start, reads the fixed point the
// plain iteration reaches in 123 rounds (total N 5.2385), not the
// 4-round stop at 18.78 that an Aitken-accelerated iteration once
// accepted. Unlike the golden, this holds on any architecture.
func TestColdGridStopsAtFixedPoints(t *testing.T) {
	run, err := Execute(context.Background(), benchSpec(), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range run.Results {
		if r.Status != StatusOK {
			t.Fatalf("trial %s: status %s (%s)", r.Key[:8], r.Status, r.Err)
		}
		if res := r.Values["fixedPointResidual"]; !(res < 1e-6) {
			t.Fatalf("trial %s: residual %g, want < 1e-6", r.Key[:8], res)
		}
		if strings.HasPrefix(r.Key, "20c5318c") {
			found = true
			if n := r.Values["totalN"]; math.Abs(n-5.2385) > 5e-4 {
				t.Fatalf("trial 20c5318c: total N %v after %v rounds, want 5.2385", n, r.Values["iterations"])
			}
		}
	}
	if !found {
		t.Fatal("trial 20c5318c missing from the cold grid")
	}
}
