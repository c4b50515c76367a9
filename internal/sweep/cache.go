package sweep

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
)

// CacheFile names the disk tier's file inside a cache directory. Keys
// address trials, not the code that answered them, so the name carries a
// version: change it whenever answers change under unchanged keys, and
// directories filled by older code stop being read instead of serving
// their answers as cached. v2: the Theorem 4.3 fixed point stops only
// at a fixed point, and some answers of cache.jsonl were not.
const CacheFile = "cache.v2.jsonl"

// cacheShards is the stripe count of the memory tier. Keys are content
// hashes, so they spread uniformly; 64 stripes keeps the probability of
// two workers colliding on one mutex negligible at any realistic pool
// size while costing a few hundred bytes of footprint.
const cacheShards = 64

// cacheShard is one stripe: a private mutex and its slice of the map.
type cacheShard struct {
	mu  sync.Mutex
	mem map[string]map[string]float64
}

// Cache is the two-tier trial-result store: a lock-striped in-memory map
// always, and an append-only JSONL file underneath it when opened with a
// directory. Keys are content hashes of the trials (Trial.Key), so the
// cache is safely shared between unrelated sweeps, and interrupted or
// repeated runs skip every trial whose result is already on disk. Only
// successful results are stored; errors and panics are computed again on
// a re-run.
//
// Every appended record carries a CRC32C of its content, and opening the
// cache runs crash recovery: a torn final line (a run killed mid-append)
// is truncated away, interior records that fail to parse or to verify
// are quarantined to a ".corrupt" sidecar instead of silently vanishing,
// and the counts are reported via Recovery — surfaced in sweep manifests
// and on gangserved's /metrics. Every record this file format has held
// was written with a checksum, so a record without one is quarantined
// like a mismatched one: dropping the field must not bypass the check.
//
// Lock order: Get/Put/Len hold resetMu read-side, then one stripe mutex
// (and, for Put, ioMu for the disk append). Reset and Close take resetMu
// write-side, so a Put can never land its memory insert before a
// truncation and its disk append after.
type Cache struct {
	resetMu sync.RWMutex
	shards  [cacheShards]cacheShard

	ioMu  sync.Mutex // serializes JSONL appends beneath the stripes
	file  *os.File
	w     *bufio.Writer
	fsync bool

	rec CacheRecovery // what recovery-on-open found; immutable after open
}

// CacheOptions tune the disk tier.
type CacheOptions struct {
	// Fsync forces a file sync after every appended record. Off by
	// default: the cache is a rebuildable store and recovery-on-open
	// already contains torn tails, so most deployments prefer the
	// throughput; turn it on when the cache is the artifact of record.
	Fsync bool
}

// CacheRecovery reports what opening a disk cache had to repair.
type CacheRecovery struct {
	// Quarantined counts newline-terminated records that failed JSON
	// parsing or checksum verification (a missing checksum included) and
	// were moved to the ".corrupt" sidecar next to the cache file.
	Quarantined int `json:"quarantined,omitempty"`
	// TornBytes is the length of the unterminated final line truncated
	// away — the footprint of a crash mid-append.
	TornBytes int64 `json:"tornBytes,omitempty"`
}

// cacheRecord is one JSONL line of the on-disk store. CRC is the
// CRC32C (hex) of the record's own JSON encoding without the crc field;
// json.Marshal is deterministic (struct order fixed, map keys sorted,
// minimal float formatting round-trips exactly), so re-marshaling the
// decoded record reproduces the checksummed bytes.
type cacheRecord struct {
	Key    string             `json:"key"`
	Values map[string]float64 `json:"values"`
	CRC    string             `json:"crc,omitempty"`
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// encodeRecord renders the full JSONL line (newline included) for one
// record, checksum embedded.
func encodeRecord(key string, values map[string]float64) ([]byte, error) {
	payload, err := json.Marshal(cacheRecord{Key: key, Values: values})
	if err != nil {
		return nil, err
	}
	line, err := json.Marshal(cacheRecord{Key: key, Values: values,
		CRC: fmt.Sprintf("%08x", crc32.Checksum(payload, castagnoli))})
	if err != nil {
		return nil, err
	}
	return append(line, '\n'), nil
}

// verifyRecord re-derives a decoded record's checksum and reports
// whether it matches the one the record carries; a record without one
// fails.
func verifyRecord(rec *cacheRecord) bool {
	payload, err := json.Marshal(cacheRecord{Key: rec.Key, Values: rec.Values})
	if err != nil {
		return false
	}
	return fmt.Sprintf("%08x", crc32.Checksum(payload, castagnoli)) == rec.CRC
}

// shard maps a content-hash key onto its stripe (FNV-1a, folded).
func (c *Cache) shard(key string) *cacheShard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &c.shards[h%cacheShards]
}

// NewMemCache returns a memory-only cache (no persistence).
func NewMemCache() *Cache {
	c := &Cache{}
	for i := range c.shards {
		c.shards[i].mem = make(map[string]map[string]float64)
	}
	return c
}

// OpenCache opens (creating as needed) the disk-backed cache in dir with
// default options, running crash recovery on the existing file.
func OpenCache(dir string) (*Cache, error) {
	return OpenCacheWith(dir, CacheOptions{})
}

// OpenCacheWith is OpenCache with explicit options.
func OpenCacheWith(dir string, opts CacheOptions) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: cache dir: %w", err)
	}
	path := filepath.Join(dir, CacheFile)
	c := NewMemCache()
	c.fsync = opts.Fsync
	if err := c.loadAndRecover(path); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sweep: cache open: %w", err)
	}
	c.file = f
	c.w = bufio.NewWriter(f)
	return c, nil
}

// loadAndRecover reads the cache file line by line (no token-size limit:
// lines are split manually, so a record larger than any scanner buffer
// still loads), loading verified records into memory and repairing the
// rest: an unterminated final line is a torn append and is truncated
// away; terminated lines that fail parsing or checksum are quarantined
// to path+".corrupt" and the main file is rewritten (tmp+rename) with
// only the good lines. The outcome is recorded in c.rec.
func (c *Cache) loadAndRecover(path string) error {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("sweep: cache read: %w", err)
	}
	var good, corrupt [][]byte
	rest := data
	for len(rest) > 0 {
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			// Unterminated tail: the append that wrote it never finished.
			c.rec.TornBytes = int64(len(rest))
			break
		}
		line := rest[:nl]
		rest = rest[nl+1:]
		var rec cacheRecord
		if err := json.Unmarshal(line, &rec); err != nil || rec.Key == "" || !verifyRecord(&rec) {
			corrupt = append(corrupt, line)
			continue
		}
		c.shard(rec.Key).mem[rec.Key] = rec.Values
		good = append(good, line)
	}
	c.rec.Quarantined = len(corrupt)
	if len(corrupt) > 0 {
		if err := appendLines(path+".corrupt", corrupt); err != nil {
			return fmt.Errorf("sweep: cache quarantine: %w", err)
		}
		// Interior damage: rewrite the file with only the good lines,
		// atomically, so a crash mid-repair never loses the good records.
		tmp := path + ".tmp"
		if err := writeLines(tmp, good); err != nil {
			return fmt.Errorf("sweep: cache rewrite: %w", err)
		}
		if err := os.Rename(tmp, path); err != nil {
			return fmt.Errorf("sweep: cache rewrite: %w", err)
		}
	} else if c.rec.TornBytes > 0 {
		// Tail-only damage: truncate the torn bytes in place.
		if err := os.Truncate(path, int64(len(data))-c.rec.TornBytes); err != nil {
			return fmt.Errorf("sweep: cache truncate: %w", err)
		}
	}
	return nil
}

func appendLines(path string, lines [][]byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	for _, l := range lines {
		if _, err := f.Write(append(l, '\n')); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func writeLines(path string, lines [][]byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	for _, l := range lines {
		if _, err := f.Write(append(l, '\n')); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Recovery reports what opening this cache's disk file had to repair
// (all-zero for healthy files and memory-only caches).
func (c *Cache) Recovery() CacheRecovery { return c.rec }

// Get returns the cached values for key, if present.
func (c *Cache) Get(key string) (map[string]float64, bool) {
	c.resetMu.RLock()
	defer c.resetMu.RUnlock()
	sh := c.shard(key)
	sh.mu.Lock()
	v, ok := sh.mem[key]
	sh.mu.Unlock()
	return v, ok
}

// Put stores values under key, appending a checksummed record to the
// disk store when one is attached. Re-putting an existing key is a
// no-op. Puts to different stripes only contend on the disk appender.
func (c *Cache) Put(key string, values map[string]float64) error {
	c.resetMu.RLock()
	defer c.resetMu.RUnlock()
	sh := c.shard(key)
	sh.mu.Lock()
	if _, ok := sh.mem[key]; ok {
		sh.mu.Unlock()
		return nil
	}
	sh.mem[key] = values
	sh.mu.Unlock()
	if c.file == nil {
		return nil
	}
	line, err := encodeRecord(key, values)
	if err != nil {
		return fmt.Errorf("sweep: cache append: %w", err)
	}
	c.ioMu.Lock()
	defer c.ioMu.Unlock()
	if _, err := c.w.Write(line); err != nil {
		return fmt.Errorf("sweep: cache append: %w", err)
	}
	if err := c.w.Flush(); err != nil {
		return err
	}
	if c.fsync {
		if err := c.file.Sync(); err != nil {
			return fmt.Errorf("sweep: cache sync: %w", err)
		}
	}
	return nil
}

// Reset discards every cached result, truncating the disk store when
// one is attached — the "start cold" escape hatch for a cache whose
// inputs are suspected stale.
func (c *Cache) Reset() error {
	c.resetMu.Lock()
	defer c.resetMu.Unlock()
	for i := range c.shards {
		c.shards[i].mem = make(map[string]map[string]float64)
	}
	if c.file == nil {
		return nil
	}
	if err := c.w.Flush(); err != nil {
		return err
	}
	if err := c.file.Truncate(0); err != nil {
		return fmt.Errorf("sweep: cache reset: %w", err)
	}
	_, err := c.file.Seek(0, 0)
	return err
}

// Len reports the number of cached results.
func (c *Cache) Len() int {
	c.resetMu.RLock()
	defer c.resetMu.RUnlock()
	n := 0
	for i := range c.shards {
		c.shards[i].mu.Lock()
		n += len(c.shards[i].mem)
		c.shards[i].mu.Unlock()
	}
	return n
}

// Close flushes and releases the disk store, if any.
func (c *Cache) Close() error {
	c.resetMu.Lock()
	defer c.resetMu.Unlock()
	if c.file == nil {
		return nil
	}
	if err := c.w.Flush(); err != nil {
		c.file.Close()
		return err
	}
	err := c.file.Close()
	c.file, c.w = nil, nil
	return err
}
