package compress

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"sync"

	"github.com/srl-nuces/ctxdna/internal/obs"
)

// Result is one cached compression outcome: the sealed armored frame plus
// the modeled cost of producing and reversing it. Entries are only stored
// after a verified round-trip, so a cache hit is as trustworthy as a fresh
// run.
type Result struct {
	// Data is the sealed armored frame (Seal output): header, checksums and
	// codec payload, ready to write to disk or ship over a store. Both Put
	// and Get copy it, so a caller may mutate the slice it holds without
	// corrupting other callers.
	Data []byte
	// PayloadBytes is the codec payload size inside the frame — the
	// compressed-size figure grids and reports quote, armor overhead
	// excluded.
	PayloadBytes int
	// Bases is the original sequence length, kept as a collision tripwire.
	Bases         int
	CompressStats Stats
	DecompStats   Stats
}

// copySlices replaces r's slice fields with private copies — the aliasing
// barrier between the stored entry and every caller.
func (r *Result) copySlices() {
	r.Data = append([]byte(nil), r.Data...)
}

// Key identifies a cache entry: codec identity × content hash. Two inputs
// with the same bytes share an entry under the same codec and never across
// codecs.
type Key struct {
	Codec string
	Sum   [sha256.Size]byte
}

// ContentKey builds the cache key for src under the named codec: the
// symbols a Cache compresses, or the frame a BlockCache decodes.
func ContentKey(codec string, src []byte) Key {
	return Key{Codec: codec, Sum: sha256.Sum256(src)}
}

// Cache is a concurrency-safe, content-addressed store of compression
// results. Repeated sweeps over the same corpus (figure regeneration, weight
// sweeps, batch jobs with duplicate inputs) hit it instead of recompressing.
type Cache struct {
	mu     sync.RWMutex
	m      map[Key]Result
	hits   uint64
	misses uint64
	met    cacheMetrics
}

// cacheMetrics mirrors the cache's lifetime counters into a metrics
// registry so sweeps expose hit rates next to codec and grid figures.
type cacheMetrics struct {
	hits           *obs.Counter
	misses         *obs.Counter
	stores         *obs.Counter
	verifyFailures *obs.Counter
}

func newCacheMetrics(reg *obs.Registry) cacheMetrics {
	reg = obs.OrDefault(reg)
	return cacheMetrics{
		hits:           reg.Counter("dna_cache_hits_total", "Compression cache hits."),
		misses:         reg.Counter("dna_cache_misses_total", "Compression cache misses."),
		stores:         reg.Counter("dna_cache_stores_total", "Entries stored in the compression cache."),
		verifyFailures: reg.Counter("dna_cache_verify_failures_total", "Round-trip verifications that failed before caching."),
	}
}

// NewCache returns an empty cache reporting into the default metrics
// registry.
func NewCache() *Cache {
	return NewCacheObserved(nil)
}

// NewCacheObserved returns an empty cache reporting its hit/miss/store and
// verify-failure counters into reg (nil means the default registry).
func NewCacheObserved(reg *obs.Registry) *Cache {
	return &Cache{m: make(map[Key]Result), met: newCacheMetrics(reg)}
}

// Get returns the entry for k, counting a hit or miss. Nil caches always
// miss, so callers can thread an optional cache without nil checks.
func (c *Cache) Get(k Key) (Result, bool) {
	if c == nil {
		return Result{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.m[k]
	if ok {
		c.hits++
		c.met.hits.Inc()
	} else {
		c.misses++
		c.met.misses.Inc()
	}
	// Hand out private copies: the stored entry outlives any single
	// caller, and shared frame bytes would let one caller's mutation
	// corrupt every later hit. The copy sits on the unconditional path so
	// copydiscipline can prove every return is alias-free (a miss copies
	// a zero Result: free).
	r.copySlices()
	return r, ok
}

// Put stores r under k, copying the compressed bytes so later caller-side
// mutation cannot corrupt the entry. Nil caches drop the entry.
func (c *Cache) Put(k Key, r Result) {
	if c == nil {
		return
	}
	r.copySlices()
	c.mu.Lock()
	c.m[k] = r
	c.mu.Unlock()
	c.met.stores.Inc()
}

// noteVerifyFailure counts a pre-cache round-trip verification failure.
// Nil caches drop the count along with the entry they would have stored.
func (c *Cache) noteVerifyFailure() {
	if c == nil {
		return
	}
	c.met.verifyFailures.Inc()
}

// Len reports the number of stored entries.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// Counters reports lifetime hits and misses.
func (c *Cache) Counters() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.hits, c.misses
}

// CompressCached returns the cached result for (codec, src) or compresses
// src with a fresh codec instance, seals the stream into an armored frame,
// verifies the round-trip byte-for-byte through the hardened decode path,
// stores the outcome, and returns it. cache may be nil (always compresses).
// Codec metrics land in the default registry; use CompressObserved to aim
// them at a specific one.
func CompressCached(cache *Cache, codecName string, src []byte) (Result, error) {
	return CompressObserved(nil, cache, codecName, src)
}

// CompressObserved is CompressCached recording per-codec operation metrics
// into reg (nil means the default registry). Codec op metrics are recorded
// only on cache misses — the only time the codec actually runs — while the
// cache's own counters track the hit/miss split.
func CompressObserved(reg *obs.Registry, cache *Cache, codecName string, src []byte) (Result, error) {
	key := ContentKey(codecName, src)
	if r, ok := cache.Get(key); ok && r.Bases == len(src) {
		return r, nil
	}
	c, err := New(codecName)
	if err != nil {
		return Result{}, err
	}
	data, cst, err := c.Compress(src)
	ObserveCompress(reg, codecName, len(src), len(data), cst, err)
	if err != nil {
		return Result{}, err
	}
	frame := Seal(codecName, src, data)
	// Verifying through SafeDecompress exercises the exact path a receiver
	// runs, so a cached frame is known to open, decode and checksum clean.
	restored, dst, err := SafeDecompress(codecName, frame, Limits{MaxCompressed: -1, MaxOutput: -1})
	ObserveDecompress(reg, codecName, len(frame), len(restored), dst, err)
	if err != nil {
		cache.noteVerifyFailure()
		return Result{}, fmt.Errorf("decompress: %w", err)
	}
	if !bytes.Equal(restored, src) {
		cache.noteVerifyFailure()
		return Result{}, fmt.Errorf("round-trip mismatch: %d bases in, %d out", len(src), len(restored))
	}
	r := Result{Data: frame, PayloadBytes: len(data), Bases: len(src), CompressStats: cst, DecompStats: dst}
	cache.Put(key, r)
	return r, nil
}
