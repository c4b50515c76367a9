package sweep

import (
	"bytes"
	"context"
	"flag"
	"os"
	"runtime"
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
