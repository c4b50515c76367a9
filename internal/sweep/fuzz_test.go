package sweep

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzCacheRecovery: recovery-on-open must absorb arbitrary bytes in
// the cache file — no panic, no open error — and repair it in place:
// after the open, an append and a reopen must find a pristine file with
// the new record intact.
func FuzzCacheRecovery(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("{\"key\":\"k\",\"values\":{\"N0\":1}}\n"))
	f.Add([]byte("{\"key\":\"k\",\"values\":{\"N0\":1},\"crc\":\"00000000\"}\n"))
	f.Add([]byte("{\"key\":\"torn\",\"values\":{\"N0\":"))
	f.Add([]byte("\x00\xff garbage\n{\"key\":"))
	f.Add([]byte("{\"key\":\"a\",\"values\":null}\n\n\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, CacheFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := OpenCache(dir)
		if err != nil {
			t.Fatalf("recovery-on-open rejected the file: %v", err)
		}
		if err := c.Put("fuzz-probe", map[string]float64{"N0": 1}); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		c, err = OpenCache(dir)
		if err != nil {
			t.Fatalf("reopen after repair: %v", err)
		}
		defer c.Close()
		rec := c.Recovery()
		if rec.Quarantined != 0 || rec.TornBytes != 0 {
			t.Fatalf("repair was not durable: %+v", rec)
		}
		if _, ok := c.Get("fuzz-probe"); !ok {
			t.Fatal("record appended after recovery lost on reopen")
		}
	})
}
