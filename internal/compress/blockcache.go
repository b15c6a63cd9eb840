package compress

import (
	"container/list"
	"slices"
	"sync"

	"github.com/srl-nuces/ctxdna/internal/obs"
	"github.com/srl-nuces/ctxdna/internal/seq"
)

// blockCacheBudget bounds a NewBlockCache's packed bytes: 8 MiB at 2 bits
// per base is 32 Mbases, 32 blocks at DefaultBlockSize or 512 at 64 KiB.
const blockCacheBudget = 8 << 20

// BlockCache is a concurrency-safe, byte-budgeted LRU of verified decoded
// blocks, shared by the BlockReaders attached to it with UseCache. It
// keeps Cache's contract, not its type, because Cache is unbounded by
// design. Content key: ContentKey(reader codec, block frame), a SHA-256,
// never the index CRC32 an uploader can collide, so an overwritten
// container needs no invalidation. Verify before store: a block goes in
// only after every check of BlockReader.block has passed. Copy on get:
// entries are 2-bit packed, and a hit unpacks into the caller's buffer
// only the symbols it copies. A hit returns the Stats stored with its
// entry, so no result depends on whether the cache was warm. Two
// concurrent misses on one block both decode; the second put is a no-op.
type BlockCache struct {
	reg    *obs.Registry
	size   *obs.Gauge
	budget int

	mu   sync.Mutex
	used int
	lru  list.List // of *blockEntry, most recently used first
	m    map[Key]*list.Element
}

// blockEntry is one cached block; it is never mutated once stored.
type blockEntry struct {
	key    Key
	packed []byte
	bases  int
	st     Stats
}

// NewBlockCache returns an empty cache with an 8 MiB packed budget. Its
// per-codec hit and miss counters and its size gauge land in reg (nil
// means the default registry).
func NewBlockCache(reg *obs.Registry) *BlockCache { return newBlockCache(reg, blockCacheBudget) }

func newBlockCache(reg *obs.Registry, budget int) *BlockCache {
	reg = obs.OrDefault(reg)
	return &BlockCache{
		reg:    reg,
		size:   reg.Gauge("dna_block_cache_bytes", "Packed bytes of decoded blocks held by the block cache."),
		budget: budget,
		m:      make(map[Key]*list.Element),
	}
}

// fits reports whether a block of n bases could be stored at all; one
// that could not skips the cache, hashing included.
func (c *BlockCache) fits(n int) bool { return c != nil && (n+3)/4 <= c.budget }

// get returns the entry for k if it restores exactly bases symbols,
// marking it most recently used, and counts a hit or a miss.
func (c *BlockCache) get(k Key, bases int) *blockEntry {
	c.mu.Lock()
	el, ok := c.m[k]
	ok = ok && el.Value.(*blockEntry).bases == bases
	if ok {
		c.lru.MoveToFront(el)
	}
	c.mu.Unlock()
	if !ok {
		c.reg.Counter("dna_block_cache_misses_total", "Block cache misses: blocks then decoded.", "codec", k.Codec).Inc()
		return nil
	}
	c.reg.Counter("dna_block_cache_hits_total", "Block cache hits: block decodes skipped.", "codec", k.Codec).Inc()
	return el.Value.(*blockEntry)
}

// put stores a verified block under k unless k is held already or packing
// would lose a symbol outside 0..3, then evicts from the least recently
// used end until the budget holds.
func (c *BlockCache) put(k Key, syms []byte, st Stats) {
	if !c.fits(len(syms)) || !seq.Valid(syms) {
		return
	}
	e := &blockEntry{key: k, packed: seq.Pack(syms), bases: len(syms), st: st}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[k]; ok {
		return
	}
	c.m[k] = c.lru.PushFront(e)
	c.used += len(e.packed)
	for c.used > c.budget {
		old := c.lru.Remove(c.lru.Back()).(*blockEntry)
		delete(c.m, old.key)
		c.used -= len(old.packed)
	}
	c.size.Set(float64(c.used))
}

// blockSyms is a block as BlockReader.block returns it: the codec's own
// output after a decode, or the cache entry after a hit.
type blockSyms struct {
	plain []byte
	hit   *blockEntry
}

// in returns the block's n symbols in dst's backing array if it has room
// for them: a hit unpacked there, and a decode that came back elsewhere
// copied there. Without room, a decode stays where it is and a hit
// unpacks into a new buffer.
func (b blockSyms) in(dst []byte, n int) []byte {
	if b.hit == nil && (n == 0 || cap(dst) < n || &b.plain[0] == &dst[:1][0]) {
		return b.plain
	}
	syms := slices.Grow(dst[:0], n)[:n]
	b.copyTo(syms, 0)
	return syms
}

// copyTo copies the block's symbols from lo on into dst, unpacking a hit
// only as far as dst reaches, and returns how many it copied.
func (b blockSyms) copyTo(dst []byte, lo int) int {
	if b.hit == nil {
		return copy(dst, b.plain[lo:])
	}
	n := min(len(dst), b.hit.bases-lo)
	seq.UnpackAt(dst[:n], b.hit.packed, lo)
	return n
}
