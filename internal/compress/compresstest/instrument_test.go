package compresstest_test

import (
	"bytes"
	"testing"

	"github.com/srl-nuces/ctxdna/internal/compress"
	"github.com/srl-nuces/ctxdna/internal/obs"
	"github.com/srl-nuces/ctxdna/internal/synth"
)

// TestInstrumentedRoundTripAllCodecs proves that recording codec metrics
// is behavior-preserving for every registered codec: CompressObserved,
// which compresses with Compress plus ObserveCompress and verifies with
// SafeDecompress plus ObserveDecompress, yields the raw codec's payload,
// a frame that restores the input, and one booked call per direction with
// byte volumes matching reality; a cache hit books no codec call at all.
func TestInstrumentedRoundTripAllCodecs(t *testing.T) {
	names := compress.Names()
	if len(names) < 9 {
		t.Fatalf("only %d codecs registered: %v", len(names), names)
	}
	p := synth.Profile{Length: 12000, GC: 0.45, RepeatProb: 0.02, RepeatMin: 20, RepeatMax: 300, RCFraction: 0.3, MutationRate: 0.01}
	src := p.Generate(71)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			raw, err := compress.New(name)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := raw.Compress(src)
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			cache := compress.NewCache()
			r, err := compress.CompressObserved(reg, cache, name, src)
			if err != nil {
				t.Fatal(err)
			}
			if r.PayloadBytes != len(want) {
				t.Fatalf("observed compressed size %d, raw %d", r.PayloadBytes, len(want))
			}
			restored, _, err := compress.SafeDecompress(name, r.Data, compress.Limits{MaxCompressed: -1, MaxOutput: -1})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(restored, src) {
				t.Fatalf("frame restores %d bases, want the %d compressed", len(restored), len(src))
			}
			if _, err := compress.CompressObserved(reg, cache, name, src); err != nil {
				t.Fatal(err)
			}
			for op, inOut := range map[string][2]int{
				"compress":   {len(src), r.PayloadBytes},
				"decompress": {len(r.Data), len(src)},
			} {
				labels := []string{"codec", name, "op", op}
				if got := reg.Counter("dna_codec_calls_total", "", labels...).Value(); got != 1 {
					t.Errorf("%s calls = %d, want 1", op, got)
				}
				if got := reg.Counter("dna_codec_in_bytes_total", "", labels...).Value(); got != uint64(inOut[0]) {
					t.Errorf("%s in bytes = %d, want %d", op, got, inOut[0])
				}
				if got := reg.Counter("dna_codec_out_bytes_total", "", labels...).Value(); got != uint64(inOut[1]) {
					t.Errorf("%s out bytes = %d, want %d", op, got, inOut[1])
				}
				if got := reg.Counter("dna_codec_corrupt_total", "", labels...).Value() +
					reg.Counter("dna_codec_failures_total", "", labels...).Value(); got != 0 {
					t.Errorf("%s booked %d errors on a clean round-trip", op, got)
				}
			}
		})
	}
}
