package compress

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"github.com/srl-nuces/ctxdna/internal/obs"
)

// cacheSrc is a seeded random symbol sequence of n bases.
func cacheSrc(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	s := make([]byte, n)
	for i := range s {
		s[i] = byte(rng.Intn(4))
	}
	return s
}

// sealBlocks builds a CXB1 container of src in blocks of bs bases.
func sealBlocks(t *testing.T, codec string, src []byte, bs int) []byte {
	t.Helper()
	container, _, err := BlockCompress(codec, src, BlockOptions{BlockSize: bs, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	return container
}

// cachedReader opens data recording into reg, with c attached.
func cachedReader(t *testing.T, reg *obs.Registry, data []byte, c *BlockCache) *BlockReader {
	t.Helper()
	r, err := OpenBlocksObserved(reg, data, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	r.UseCache(c)
	return r
}

// TestBlockCacheWarmEqualsCold: windows read through a warm cache equal
// the cold reads in symbols and Stats, decode no block again, and count
// one hit per block they touch.
func TestBlockCacheWarmEqualsCold(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewBlockCache(reg)
	src := cacheSrc(1000, 1)
	container := sealBlocks(t, "dnapack", src, 300)
	decoded := reg.Counter("dna_block_decoded_total", "", "codec", "dnapack")
	hits := reg.Counter("dna_block_cache_hits_total", "", "codec", "dnapack")
	windows := [][2]int{{0, 10}, {290, 20}, {950, 50}, {0, 1000}}
	for pass := 0; pass < 2; pass++ {
		for _, w := range windows {
			cold, coldSt, err := cachedReader(t, obs.NewRegistry(), container, nil).Slice(w[0], w[1])
			if err != nil {
				t.Fatal(err)
			}
			before := decoded.Value()
			got, st, err := cachedReader(t, reg, container, c).Slice(w[0], w[1])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, cold) || !bytes.Equal(got, src[w[0]:w[0]+w[1]]) || st != coldSt {
				t.Fatalf("pass %d: window %v through the cache differs from a cold read (stats %+v, want %+v)", pass, w, st, coldSt)
			}
			if pass == 1 && decoded.Value() != before {
				t.Fatalf("warm window %v decoded %d blocks", w, decoded.Value()-before)
			}
		}
	}
	// 1+2+1+4 blocks per pass; the first pass decodes each of the four once.
	if got := hits.Value(); got != 4+8 {
		t.Errorf("dna_block_cache_hits_total = %d, want 12", got)
	}
	if got := decoded.Value(); got != 4 {
		t.Errorf("dna_block_decoded_total = %d, want 4", got)
	}
}

// TestBlockCacheKeyHoldsCodec: frames cached under one codec, replayed in
// a container whose header names another, still fail the codec pin. A
// key without the codec would hand back the cached bases.
func TestBlockCacheKeyHoldsCodec(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewBlockCache(reg)
	src := cacheSrc(600, 2)
	container := sealBlocks(t, "dnax", src, 200)
	if _, _, err := cachedReader(t, reg, container, c).Slice(0, len(src)); err != nil {
		t.Fatal(err)
	}
	relabeled := append([]byte(nil), container...)
	copy(relabeled[6:10], "gzip") // same name length, so only the header checksum moves
	n := len("gzip")
	binary.BigEndian.PutUint32(relabeled[34+n:], Checksum(relabeled[:34+n]))
	r := cachedReader(t, reg, relabeled, c)
	if r.Codec() != "gzip" {
		t.Fatalf("relabeled container opens as %q", r.Codec())
	}
	if got, _, err := r.Slice(0, 10); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Slice over a relabeled container: %v (%d symbols), want ErrCorrupt", err, len(got))
	}
}

// forgeCRC returns frame with byte p flipped and the four bytes at q
// rewritten so its CRC32-C is unchanged. CRC32-C is affine over GF(2), so
// the 32 bits at q map linearly, and invertibly, onto the checksum: flip
// each one to find its column, then solve for the flips that cancel p's.
func forgeCRC(t *testing.T, frame []byte, p, q int) []byte {
	t.Helper()
	forged := append([]byte(nil), frame...)
	forged[p] ^= 0xFF
	base := Checksum(forged)
	var basis, combo [32]uint32 // basis[b] has top bit b; combo[b] the column flips making it
	for i := 0; i < 32; i++ {
		forged[q+i/8] ^= 1 << (i % 8)
		col, flips := Checksum(forged)^base, uint32(1)<<i
		forged[q+i/8] ^= 1 << (i % 8)
		for b := 31; b >= 0 && col != 0; b-- {
			if col>>b&1 == 0 {
				continue
			}
			if basis[b] == 0 {
				basis[b], combo[b] = col, flips
				break
			}
			col, flips = col^basis[b], flips^combo[b]
		}
	}
	target, flips := base^Checksum(frame), uint32(0)
	for b := 31; b >= 0; b-- {
		if target>>b&1 == 1 {
			if basis[b] == 0 {
				t.Fatal("CRC columns at q are not independent")
			}
			target, flips = target^basis[b], flips^combo[b]
		}
	}
	for i := 0; i < 32; i++ {
		if flips>>i&1 == 1 {
			forged[q+i/8] ^= 1 << (i % 8)
		}
	}
	if Checksum(forged) != Checksum(frame) || bytes.Equal(forged, frame) {
		t.Fatal("forgery did not keep the CRC32-C of a different frame")
	}
	return forged
}

// TestBlockCacheIgnoresCRCCollision: a frame forged to the CRC32-C of a
// cached frame passes the index check but still fails its own decode. A
// cache keyed by the index CRC would return the cached bases instead.
func TestBlockCacheIgnoresCRCCollision(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewBlockCache(reg)
	src := cacheSrc(2000, 3)
	container := sealBlocks(t, "dnapack", src, 1000)
	r := cachedReader(t, reg, container, c)
	if _, _, err := r.Slice(0, len(src)); err != nil {
		t.Fatal(err)
	}
	start := r.offsets[0]
	frame := container[start : start+r.entries[0].Length]
	poisoned := append([]byte(nil), container...)
	copy(poisoned[start:], forgeCRC(t, frame, len(frame)-1, Overhead("dnapack")))
	if got, _, err := cachedReader(t, reg, poisoned, c).Slice(0, 10); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Slice over a CRC-colliding frame: %v (%d symbols), want ErrCorrupt", err, len(got))
	}
}

// TestBlockCacheReadsAreCopies: mutating what Slice or a one-block
// Decompress returned, on a miss or a hit, never changes a later read.
func TestBlockCacheReadsAreCopies(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewBlockCache(reg)
	src := cacheSrc(900, 4)
	codec, err := New("dnapack")
	if err != nil {
		t.Fatal(err)
	}
	payload, _, err := codec.Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	container, frame := sealBlocks(t, "dnapack", src, 400), Seal("dnapack", src, payload)
	for _, tc := range []struct {
		name string
		want []byte
		read func() ([]byte, Stats, error)
	}{
		{"Slice", src[350:550], func() ([]byte, Stats, error) { return cachedReader(t, reg, container, c).Slice(350, 200) }},
		{"one-block Decompress", src, func() ([]byte, Stats, error) { return cachedReader(t, reg, frame, c).Decompress() }},
	} {
		for i := 0; i < 3; i++ { // a miss, then two hits
			got, _, err := tc.read()
			if err != nil || !bytes.Equal(got, tc.want) {
				t.Fatalf("%s read %d: %v, or its symbols changed after the caller mutated an earlier result", tc.name, i, err)
			}
			for j := range got {
				got[j] = 3 - got[j]
			}
		}
	}
}

// TestBlockCacheLRUOracle checks the cache against a plain list, most
// recently used first, under a 64-byte budget: after every get and put it
// holds the same entries in the same order, and its byte count matches
// and stays within budget. A block too big for the budget is never packed
// or stored.
func TestBlockCacheLRUOracle(t *testing.T) {
	const budget = 64
	reg := obs.NewRegistry()
	c := newBlockCache(reg, budget)
	type block struct {
		key  Key
		syms []byte
	}
	rng := rand.New(rand.NewSource(5))
	blocks := make([]block, 12)
	for i := range blocks {
		blocks[i] = block{ContentKey("dnapack", []byte{byte(i)}), cacheSrc(1+rng.Intn(120), int64(i))}
	}
	// The same content under another codec is another entry.
	blocks = append(blocks, block{ContentKey("xm", []byte{0}), cacheSrc(40, 99)})
	var oracle []block
	used := func() (n int) {
		for _, b := range oracle {
			n += (len(b.syms) + 3) / 4
		}
		return n
	}
	find := func(k Key) int {
		for i, b := range oracle {
			if b.key == k {
				return i
			}
		}
		return -1
	}
	var hits, misses uint64
	for op := 0; op < 3000; op++ {
		b := blocks[rng.Intn(len(blocks))]
		if rng.Intn(5) < 3 {
			bases := len(b.syms)
			if rng.Intn(10) == 0 {
				bases++ // the same frame can only restore its own length
			}
			e := c.get(b.key, bases)
			i := find(b.key)
			if i < 0 || bases != len(b.syms) {
				misses++
				if e != nil {
					t.Fatalf("op %d: get hit an entry the oracle does not hold", op)
				}
				continue
			}
			hits++
			got := make([]byte, len(b.syms))
			if e == nil || (blockSyms{hit: e}).copyTo(got, 0) != len(got) || !bytes.Equal(got, b.syms) || e.st.WorkNS != int64(len(b.syms)) {
				t.Fatalf("op %d: get missed or returned other symbols or Stats", op)
			}
			oracle = append(append([]block{b}, oracle[:i]...), oracle[i+1:]...)
		} else {
			c.put(b.key, b.syms, Stats{WorkNS: int64(len(b.syms))})
			if find(b.key) < 0 {
				oracle = append([]block{b}, oracle...)
				for used() > budget {
					oracle = oracle[:len(oracle)-1]
				}
			}
		}
		el := c.lru.Front()
		for i, b := range oracle {
			if el == nil || el.Value.(*blockEntry).key != b.key {
				t.Fatalf("op %d: LRU position %d differs from the oracle", op, i)
			}
			el = el.Next()
		}
		if el != nil || len(c.m) != len(oracle) || c.used != used() || c.used > budget || c.size.Value() != float64(c.used) {
			t.Fatalf("op %d: cache holds %d entries in %d bytes, oracle %d in %d (budget %d)", op, len(c.m), c.used, len(oracle), used(), budget)
		}
	}
	var gotHits, gotMisses uint64
	for _, codec := range []string{"dnapack", "xm"} {
		gotHits += reg.Counter("dna_block_cache_hits_total", "", "codec", codec).Value()
		gotMisses += reg.Counter("dna_block_cache_misses_total", "", "codec", codec).Value()
	}
	if gotHits != hits || gotMisses != misses || hits == 0 {
		t.Errorf("counted %d hits, %d misses; oracle %d, %d", gotHits, gotMisses, hits, misses)
	}

	big := cacheSrc(4*budget+1, 7)
	key := ContentKey("dnapack", big)
	if allocs := testing.AllocsPerRun(10, func() { c.put(key, big, Stats{}) }); allocs != 0 {
		t.Errorf("a block over the budget cost %.0f allocations: it was packed", allocs)
	}
	if _, ok := c.m[key]; ok {
		t.Error("a block over the budget was stored")
	}
}

// TestBlockCacheConcurrentSlices: goroutines slice overlapping windows of
// shared readers through one cache small enough to evict all the time, and
// every window must equal the same slice of a plain decode. Now and then
// each also decodes a whole reader, which must equal the plain decode, and
// verifies one. make race runs it under -race -count=10.
func TestBlockCacheConcurrentSlices(t *testing.T) {
	const bs = 256
	reg := obs.NewRegistry()
	c := newBlockCache(reg, 3*bs/4) // three blocks of the 24 below
	type shared struct {
		r     *BlockReader
		plain []byte
	}
	var readers []shared
	for i, codec := range []string{"dnapack", "dnapack", "dnax"} {
		container := sealBlocks(t, codec, cacheSrc(8*bs-i, int64(10+i)), bs)
		plain, _, err := cachedReader(t, obs.NewRegistry(), container, nil).Decompress()
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 2; j++ { // two readers over each container
			readers = append(readers, shared{cachedReader(t, reg, container, c), plain})
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for op := 0; op < 120; op++ {
				s := readers[rng.Intn(len(readers))]
				off := rng.Intn(len(s.plain))
				n := rng.Intn(min(len(s.plain)-off, 2*bs) + 1)
				got, _, err := s.r.Slice(off, n)
				if err != nil || !bytes.Equal(got, s.plain[off:off+n]) {
					t.Errorf("Slice(%d, %d): %v, or window differs from a plain decode", off, n, err)
					return
				}
				if op%40 == 0 {
					if whole, _, err := s.r.Decompress(); err != nil || !bytes.Equal(whole, s.plain) {
						t.Errorf("Decompress: %v, or output differs from a plain decode", err)
						return
					}
				}
				if op%40 == 20 {
					if _, err := s.r.Verify(); err != nil {
						t.Errorf("Verify: %v", err)
						return
					}
				}
			}
		}(int64(g))
	}
	wg.Wait()
	if c.used > 3*bs/4 {
		t.Errorf("cache holds %d bytes over its %d budget", c.used, 3*bs/4)
	}
}
