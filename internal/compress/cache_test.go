package compress_test

import (
	"bytes"
	"sync"
	"testing"

	"github.com/srl-nuces/ctxdna/internal/compress"

	_ "github.com/srl-nuces/ctxdna/internal/compress/dnapack"
)

func TestContentKeySeparatesCodecAndContent(t *testing.T) {
	a := []byte{0, 1, 2, 3}
	b := []byte{0, 1, 2, 0}
	if compress.ContentKey("dnapack", a) != compress.ContentKey("dnapack", append([]byte(nil), a...)) {
		t.Error("same codec+content produced different keys")
	}
	if compress.ContentKey("dnapack", a) == compress.ContentKey("dnapack", b) {
		t.Error("different content produced the same key")
	}
	if compress.ContentKey("dnapack", a) == compress.ContentKey("xm", a) {
		t.Error("different codecs share a key")
	}
}

func TestCompressCachedHitsAndMisses(t *testing.T) {
	cache := compress.NewCache()
	src := bytes.Repeat([]byte{0, 1, 2, 3}, 500)

	r1, err := compress.CompressObserved(nil, cache, "dnapack", src)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := cache.Counters(); hits != 0 || misses != 1 {
		t.Fatalf("after cold run: %d hits %d misses", hits, misses)
	}
	r2, err := compress.CompressObserved(nil, cache, "dnapack", src)
	if err != nil {
		t.Fatal(err)
	}
	if hits, _ := cache.Counters(); hits != 1 {
		t.Fatalf("warm run did not hit")
	}
	if !bytes.Equal(r1.Data, r2.Data) || r1.Bases != r2.Bases || r1.CompressStats != r2.CompressStats {
		t.Error("cached result differs from fresh result")
	}
	if cache.Len() != 1 {
		t.Errorf("cache holds %d entries, want 1", cache.Len())
	}

	// Different content under the same codec must miss and round-trip
	// through the armored frame the cache now stores.
	other := append(append([]byte(nil), src...), 3)
	r3, err := compress.CompressObserved(nil, cache, "dnapack", other)
	if err != nil {
		t.Fatal(err)
	}
	restored, _, err := compress.SafeDecompress("dnapack", r3.Data, compress.Limits{})
	if err != nil || !bytes.Equal(restored, other) {
		t.Fatalf("second entry round-trip broken: %v", err)
	}
	if r3.PayloadBytes <= 0 || r3.PayloadBytes >= len(r3.Data) {
		t.Fatalf("PayloadBytes %d not inside frame of %d bytes", r3.PayloadBytes, len(r3.Data))
	}
}

func TestCompressCachedNilCache(t *testing.T) {
	src := bytes.Repeat([]byte{1, 0}, 100)
	r, err := compress.CompressObserved(nil, nil, "dnapack", src)
	if err != nil {
		t.Fatal(err)
	}
	if r.Bases != len(src) {
		t.Errorf("Bases = %d, want %d", r.Bases, len(src))
	}
	if _, err := compress.CompressObserved(nil, nil, "no-such-codec", src); err == nil {
		t.Error("unknown codec accepted")
	}
}

// TestCacheConcurrentAccess hammers one cache from many goroutines over a
// few distinct inputs; run under -race this pins down the locking contract.
func TestCacheConcurrentAccess(t *testing.T) {
	cache := compress.NewCache()
	inputs := [][]byte{
		bytes.Repeat([]byte{0}, 400),
		bytes.Repeat([]byte{0, 1}, 300),
		bytes.Repeat([]byte{0, 1, 2, 3}, 200),
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				src := inputs[(w+i)%len(inputs)]
				r, err := compress.CompressObserved(nil, cache, "dnapack", src)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if r.Bases != len(src) {
					t.Errorf("worker %d: stale entry: %d bases for %d-base input", w, r.Bases, len(src))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if cache.Len() != len(inputs) {
		t.Errorf("cache holds %d entries, want %d", cache.Len(), len(inputs))
	}
	hits, misses := cache.Counters()
	if hits+misses != 8*20 {
		t.Errorf("hits+misses = %d, want %d", hits+misses, 8*20)
	}
}

// TestCacheGetReturnsPrivateCopy: a hit must hand out a private Data slice.
// The old bug returned the stored slice itself, so one caller's mutation
// (or reuse of the buffer) silently corrupted every later hit.
func TestCacheGetReturnsPrivateCopy(t *testing.T) {
	cache := compress.NewCache()
	src := bytes.Repeat([]byte{0, 1, 2, 3}, 256)
	orig, err := compress.CompressObserved(nil, cache, "dnapack", src)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), orig.Data...)

	hit1, ok := cache.Get(compress.ContentKey("dnapack", src))
	if !ok {
		t.Fatal("warm cache missed")
	}
	for i := range hit1.Data {
		hit1.Data[i] ^= 0xFF // scribble over the first hit's buffer
	}
	hit2, ok := cache.Get(compress.ContentKey("dnapack", src))
	if !ok {
		t.Fatal("warm cache missed")
	}
	if !bytes.Equal(hit2.Data, want) {
		t.Fatal("mutating one Get's Data corrupted the cached entry")
	}
}

// TestCompressCachedHitAliasing covers the same contract one level up:
// mutating a CompressObserved hit's Data must not break later decompression.
func TestCompressCachedHitAliasing(t *testing.T) {
	cache := compress.NewCache()
	src := bytes.Repeat([]byte{3, 2, 1, 0}, 256)
	if _, err := compress.CompressObserved(nil, cache, "dnapack", src); err != nil {
		t.Fatal(err)
	}
	hit, err := compress.CompressObserved(nil, cache, "dnapack", src)
	if err != nil {
		t.Fatal(err)
	}
	for i := range hit.Data {
		hit.Data[i] = 0xAA
	}
	again, err := compress.CompressObserved(nil, cache, "dnapack", src)
	if err != nil {
		t.Fatal(err)
	}
	restored, _, err := compress.SafeDecompress("dnapack", again.Data, compress.Limits{})
	if err != nil || !bytes.Equal(restored, src) {
		t.Fatalf("cached entry no longer round-trips after a hit was mutated: %v", err)
	}
}
