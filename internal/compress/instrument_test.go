package compress

import (
	"errors"
	"testing"

	"github.com/srl-nuces/ctxdna/internal/obs"
)

func counterValue(t *testing.T, reg *obs.Registry, name string, labels ...string) uint64 {
	t.Helper()
	return reg.Counter(name, "", labels...).Value()
}

func TestInstrumentRecords(t *testing.T) {
	reg := obs.NewRegistry()
	ObserveCompress(reg, "stub", 8, 5, Stats{WorkNS: 2_000_000, PeakMem: 1024}, nil)
	ObserveDecompress(reg, "stub", 5, 8, Stats{WorkNS: 1_000_000, PeakMem: 512}, nil)

	for _, c := range []struct {
		op           string
		in, out      uint64
		modelMS, mem float64
	}{{"compress", 8, 5, 2.0, 1024}, {"decompress", 5, 8, 1.0, 512}} {
		labels := []string{"codec", "stub", "op", c.op}
		if got := counterValue(t, reg, "dna_codec_calls_total", labels...); got != 1 {
			t.Errorf("%s calls = %d, want 1", c.op, got)
		}
		if got := counterValue(t, reg, "dna_codec_in_bytes_total", labels...); got != c.in {
			t.Errorf("%s in bytes = %d, want %d", c.op, got, c.in)
		}
		if got := counterValue(t, reg, "dna_codec_out_bytes_total", labels...); got != c.out {
			t.Errorf("%s out bytes = %d, want %d", c.op, got, c.out)
		}
		h := reg.Histogram("dna_codec_model_ms", "", obs.DefMSBuckets(), labels...)
		if h.Count() != 1 || h.Sum() != c.modelMS {
			t.Errorf("%s model_ms = count %d sum %v, want 1 / %v", c.op, h.Count(), h.Sum(), c.modelMS)
		}
		if got := reg.Gauge("dna_codec_peak_mem_bytes", "", labels...).Value(); got != c.mem {
			t.Errorf("%s peak mem = %v, want %v", c.op, got, c.mem)
		}
	}
}

func TestInstrumentErrorTaxonomy(t *testing.T) {
	reg := obs.NewRegistry()
	comp := []string{"codec", "stub", "op", "compress"}

	ObserveCompress(reg, "stub", 1, 0, Stats{}, Corruptf("bad frame"))
	if got := counterValue(t, reg, "dna_codec_corrupt_total", comp...); got != 1 {
		t.Errorf("corrupt = %d, want 1", got)
	}
	if got := counterValue(t, reg, "dna_codec_failures_total", comp...); got != 0 {
		t.Errorf("failures = %d, want 0", got)
	}

	ObserveCompress(reg, "stub", 1, 0, Stats{WorkNS: 1_000_000}, errors.New("disk on fire"))
	if got := counterValue(t, reg, "dna_codec_failures_total", comp...); got != 1 {
		t.Errorf("failures = %d, want 1", got)
	}
	if got := counterValue(t, reg, "dna_codec_calls_total", comp...); got != 2 {
		t.Errorf("calls = %d, want 2: failed ops are calls too", got)
	}
	// Failed ops never book output bytes or modeled cost.
	if got := counterValue(t, reg, "dna_codec_out_bytes_total", comp...); got != 0 {
		t.Errorf("out bytes after failures = %d, want 0", got)
	}
	if h := reg.Histogram("dna_codec_model_ms", "", obs.DefMSBuckets(), comp...); h.Count() != 0 {
		t.Errorf("model_ms count after failures = %d, want 0", h.Count())
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
