package compress

import (
	"errors"
	"testing"

	"github.com/srl-nuces/ctxdna/internal/obs"
)

// stubCodec is a trivial identity codec for exercising the instrumentation
// wrapper without depending on any registered codec package.
type stubCodec struct {
	compressErr   error
	decompressErr error
}

func (stubCodec) Name() string { return "stub" }

func (s stubCodec) Compress(src []byte) ([]byte, Stats, error) {
	if s.compressErr != nil {
		return nil, Stats{}, s.compressErr
	}
	return append([]byte(nil), src...), Stats{WorkNS: 2_000_000, PeakMem: 1024}, nil
}

func (s stubCodec) Decompress(data []byte) ([]byte, Stats, error) {
	return s.DecompressTo(nil, data)
}

func (s stubCodec) DecompressTo(dst, data []byte) ([]byte, Stats, error) {
	if s.decompressErr != nil {
		return nil, Stats{}, s.decompressErr
	}
	return append(dst[:0], data...), Stats{WorkNS: 1_000_000, PeakMem: 512}, nil
}

func counterValue(t *testing.T, reg *obs.Registry, name string, labels ...string) uint64 {
	t.Helper()
	return reg.Counter(name, "", labels...).Value()
}

func TestInstrumentRecords(t *testing.T) {
	reg := obs.NewRegistry()
	c := Instrument(reg, stubCodec{})
	if c.Name() != "stub" {
		t.Fatalf("Name = %q", c.Name())
	}
	src := []byte{0, 1, 2, 3, 0, 1, 2, 3}
	data, st, err := c.Compress(src)
	if err != nil || st.WorkNS != 2_000_000 {
		t.Fatalf("Compress: %v, %+v", err, st)
	}
	if _, _, err := c.Decompress(data); err != nil {
		t.Fatalf("Decompress: %v", err)
	}

	comp := []string{"codec", "stub", "op", "compress"}
	dec := []string{"codec", "stub", "op", "decompress"}
	if got := counterValue(t, reg, "dna_codec_calls_total", comp...); got != 1 {
		t.Errorf("compress calls = %d, want 1", got)
	}
	if got := counterValue(t, reg, "dna_codec_calls_total", dec...); got != 1 {
		t.Errorf("decompress calls = %d, want 1", got)
	}
	if got := counterValue(t, reg, "dna_codec_in_bytes_total", comp...); got != uint64(len(src)) {
		t.Errorf("in bytes = %d, want %d", got, len(src))
	}
	if got := counterValue(t, reg, "dna_codec_out_bytes_total", comp...); got != uint64(len(data)) {
		t.Errorf("out bytes = %d, want %d", got, len(data))
	}
	h := reg.Histogram("dna_codec_model_ms", "", obs.DefMSBuckets(), comp...)
	if h.Count() != 1 || h.Sum() != 2.0 {
		t.Errorf("model_ms = count %d sum %v, want 1 / 2.0", h.Count(), h.Sum())
	}
	if got := reg.Gauge("dna_codec_peak_mem_bytes", "", comp...).Value(); got != 1024 {
		t.Errorf("peak mem = %v, want 1024", got)
	}
}

func TestInstrumentErrorTaxonomy(t *testing.T) {
	reg := obs.NewRegistry()
	comp := []string{"codec", "stub", "op", "compress"}

	corrupt := Instrument(reg, stubCodec{compressErr: Corruptf("bad frame")})
	if _, _, err := corrupt.Compress([]byte{1}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
	if got := counterValue(t, reg, "dna_codec_corrupt_total", comp...); got != 1 {
		t.Errorf("corrupt = %d, want 1", got)
	}
	if got := counterValue(t, reg, "dna_codec_failures_total", comp...); got != 0 {
		t.Errorf("failures = %d, want 0", got)
	}

	failing := Instrument(reg, stubCodec{compressErr: errors.New("disk on fire")})
	if _, _, err := failing.Compress([]byte{1}); err == nil {
		t.Fatal("want error")
	}
	if got := counterValue(t, reg, "dna_codec_failures_total", comp...); got != 1 {
		t.Errorf("failures = %d, want 1", got)
	}
	// Failed ops never book output bytes or modeled cost.
	if got := counterValue(t, reg, "dna_codec_out_bytes_total", comp...); got != 0 {
		t.Errorf("out bytes after failures = %d, want 0", got)
	}
}

func TestInstrumentNoDoubleWrap(t *testing.T) {
	reg := obs.NewRegistry()
	c := Instrument(reg, stubCodec{})
	if Instrument(reg, c) != c {
		t.Fatal("Instrument re-wrapped an instrumented codec")
	}
	if Instrument(reg, nil) != nil {
		t.Fatal("Instrument(nil) != nil")
	}
}

func TestCacheObservedCounters(t *testing.T) {
	reg := obs.NewRegistry()
	cache := NewCacheObserved(reg)
	src := []byte{0, 1, 2, 3}
	// twobit-free path: exercise cache counters directly via Put/Get.
	k := ContentKey("stub", src)
	if _, ok := cache.Get(k); ok {
		t.Fatal("empty cache hit")
	}
	cache.Put(k, Result{Data: []byte{1}, Bases: len(src)})
	if _, ok := cache.Get(k); !ok {
		t.Fatal("stored entry missed")
	}
	cache.noteVerifyFailure()

	for name, want := range map[string]uint64{
		"dna_cache_hits_total":            1,
		"dna_cache_misses_total":          1,
		"dna_cache_stores_total":          1,
		"dna_cache_verify_failures_total": 1,
	} {
		if got := counterValue(t, reg, name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}

	hits, misses := cache.Counters()
	if hits != 1 || misses != 1 {
		t.Fatalf("Counters = %d/%d, want 1/1", hits, misses)
	}
}

func TestNilCacheVerifyFailureNoop(t *testing.T) {
	var c *Cache
	c.noteVerifyFailure() // must not panic
}
