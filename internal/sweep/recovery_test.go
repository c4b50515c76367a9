package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func cachePath(dir string) string { return filepath.Join(dir, CacheFile) }

// TestCacheIgnoresOlderVersionFile: a healthy record in the disk file of
// an older answer version — cache.jsonl, written while the fixed point
// could stop short of one — is a miss, and the old file is left as it
// was.
func TestCacheIgnoresOlderVersionFile(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "cache.jsonl")
	line, err := encodeRecord("k", map[string]float64{"N0": 8.98})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(old, line, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if v, ok := c.Get("k"); ok || c.Len() != 0 {
		t.Fatalf("older-version record served: %v (cache holds %d)", v, c.Len())
	}
	if rec := c.Recovery(); rec != (CacheRecovery{}) {
		t.Fatalf("older-version file touched by recovery: %+v", rec)
	}
	if got, err := os.ReadFile(old); err != nil || !bytes.Equal(got, line) {
		t.Fatalf("older-version file changed: %q, %v", got, err)
	}
}

// TestCacheRecoveryTornTail: an unterminated final line (a crash
// mid-append) is truncated away on open; the healthy records survive
// and a reopen finds nothing left to repair.
func TestCacheRecoveryTornTail(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("k1", map[string]float64{"N0": 1.25, "T0": 2.5}); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(cachePath(dir), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	torn := `{"key":"k2","values":{"N0":`
	fmt.Fprint(f, torn)
	f.Close()

	c, err = OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := c.Recovery()
	if rec.TornBytes != int64(len(torn)) || rec.Quarantined != 0 {
		t.Fatalf("recovery %+v, want TornBytes=%d", rec, len(torn))
	}
	if v, ok := c.Get("k1"); !ok || v["N0"] != 1.25 {
		t.Fatalf("healthy record lost: %v %v", v, ok)
	}
	if _, ok := c.Get("k2"); ok {
		t.Fatal("torn record resurrected")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// The truncation is durable: a third open repairs nothing.
	c, err = OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if rec := c.Recovery(); rec != (CacheRecovery{}) {
		t.Fatalf("reopen after repair still found damage: %+v", rec)
	}
}

// TestCacheRecoveryQuarantine: terminated records that fail parsing or
// checksum move to the .corrupt sidecar; the main file is rewritten with
// only the verified lines.
func TestCacheRecoveryQuarantine(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("good1", map[string]float64{"N0": 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("good2", map[string]float64{"N0": 2}); err != nil {
		t.Fatal(err)
	}
	c.Close()

	// Splice a checksum-mismatched record and a garbage line between the
	// good ones.
	data, err := os.ReadFile(cachePath(dir))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	var spliced []byte
	spliced = append(spliced, lines[0]...)
	spliced = append(spliced, []byte("{\"key\":\"evil\",\"values\":{\"N0\":9},\"crc\":\"00000000\"}\n")...)
	spliced = append(spliced, []byte("not json at all\n")...)
	spliced = append(spliced, lines[1]...)
	if err := os.WriteFile(cachePath(dir), spliced, 0o644); err != nil {
		t.Fatal(err)
	}

	c, err = OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec := c.Recovery(); rec.Quarantined != 2 || rec.TornBytes != 0 {
		t.Fatalf("recovery %+v, want 2 quarantined", rec)
	}
	for _, k := range []string{"good1", "good2"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("verified record %s lost in repair", k)
		}
	}
	if _, ok := c.Get("evil"); ok {
		t.Fatal("checksum-mismatched record served")
	}
	c.Close()

	side, err := os.ReadFile(cachePath(dir) + ".corrupt")
	if err != nil {
		t.Fatalf("no quarantine sidecar: %v", err)
	}
	if n := bytes.Count(side, []byte("\n")); n != 2 {
		t.Fatalf("sidecar holds %d lines, want 2", n)
	}
	if !bytes.Contains(side, []byte("evil")) || !bytes.Contains(side, []byte("not json")) {
		t.Fatalf("sidecar content wrong:\n%s", side)
	}
	// Main file rewritten clean: reopen finds nothing to repair.
	c, err = OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if rec := c.Recovery(); rec != (CacheRecovery{}) {
		t.Fatalf("rewrite left damage behind: %+v", rec)
	}
}

// TestCacheRecoveryLegacy: a record in the pre-checksum format (no crc
// field) is quarantined like a checksum mismatch and never served —
// deleting the field from a tampered line must not bypass the check.
func TestCacheRecoveryLegacy(t *testing.T) {
	dir := t.TempDir()
	good, err := encodeRecord("good", map[string]float64{"N0": 1})
	if err != nil {
		t.Fatal(err)
	}
	bare := []byte("{\"key\":\"old\",\"values\":{\"N0\":3.5}}\n")
	if err := os.WriteFile(cachePath(dir), append(bare, good...), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if rec := c.Recovery(); rec != (CacheRecovery{Quarantined: 1}) {
		t.Fatalf("recovery %+v, want 1 quarantined", rec)
	}
	if v, ok := c.Get("old"); ok {
		t.Fatalf("record without a checksum served: %v", v)
	}
	if _, ok := c.Get("good"); !ok {
		t.Fatal("verified record lost in repair")
	}
	side, err := os.ReadFile(cachePath(dir) + ".corrupt")
	if err != nil || !bytes.Equal(side, bare) {
		t.Fatalf("sidecar %q (%v), want the record without a checksum", side, err)
	}
	if data, err := os.ReadFile(cachePath(dir)); err != nil || !bytes.Equal(data, good) {
		t.Fatalf("cache file %q (%v), want only the verified record", data, err)
	}
}

// TestCacheRecordBeyondScannerLimit: a record far larger than
// bufio.Scanner's 64 KiB default token must survive the disk round
// trip — the old Scanner-based loader silently dropped everything from
// the oversized line on.
func TestCacheRecordBeyondScannerLimit(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	big := make(map[string]float64, 6000)
	for i := 0; i < 6000; i++ {
		big[fmt.Sprintf("metric-with-a-long-name-%05d", i)] = float64(i) / 3
	}
	if err := c.Put("big", big); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("after-big", map[string]float64{"N0": 7}); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if fi, err := os.Stat(cachePath(dir)); err != nil || fi.Size() < 128<<10 {
		t.Fatalf("test premise broken: cache file only %v bytes", fi.Size())
	}

	c, err = OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if rec := c.Recovery(); rec != (CacheRecovery{}) {
		t.Fatalf("oversized record misread as damage: %+v", rec)
	}
	v, ok := c.Get("big")
	if !ok || len(v) != 6000 || v["metric-with-a-long-name-04321"] != 4321.0/3 {
		t.Fatalf("oversized record lost or mangled (len %d)", len(v))
	}
	if _, ok := c.Get("after-big"); !ok {
		t.Fatal("record after the oversized line lost")
	}
}

// TestCacheFsyncOption: the fsync-per-append mode stores and reloads
// records like the default mode.
func TestCacheFsyncOption(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCacheWith(dir, CacheOptions{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("durable", map[string]float64{"N0": 4}); err != nil {
		t.Fatal(err)
	}
	c.Close()
	c, err = OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if v, ok := c.Get("durable"); !ok || v["N0"] != 4 {
		t.Fatalf("fsynced record lost: %v %v", v, ok)
	}
}

// TestManifestOmitsBackoffAndRecoveryWhenHealthy: healthy trials and
// pristine caches add no manifest fields beyond the execution record —
// no recovery report, and no retry bookkeeping, since every trial gets
// exactly one attempt.
func TestManifestOmitsBackoffAndRecoveryWhenHealthy(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	trials := []Trial{{Scenario: testSpec().Base, Method: MethodAnalytic}}
	run, err := RunTrials(context.Background(), trials, Options{Workers: 1, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if run.Manifest.CacheRecovery != nil {
		t.Fatalf("healthy cache surfaced recovery: %+v", run.Manifest.CacheRecovery)
	}
	enc, _ := json.Marshal(run.Manifest)
	for _, field := range []string{"backoffMillis", "attempts", "retries", "cacheRecovery"} {
		if strings.Contains(string(enc), field) {
			t.Fatalf("healthy manifest grew field %q:\n%s", field, enc)
		}
	}
}

// TestManifestSurfacesCacheRecovery: a sweep over a repaired cache
// records what recovery-on-open found.
func TestManifestSurfacesCacheRecovery(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(cachePath(dir), []byte("garbage line\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	trials := []Trial{{Scenario: testSpec().Base, Method: MethodAnalytic}}
	run, err := RunTrials(context.Background(), trials, Options{Workers: 1, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if run.Manifest.CacheRecovery == nil || run.Manifest.CacheRecovery.Quarantined != 1 {
		t.Fatalf("manifest recovery %+v, want 1 quarantined", run.Manifest.CacheRecovery)
	}
}
