package compresstest_test

import (
	"testing"

	"github.com/srl-nuces/ctxdna/internal/compress"
	"github.com/srl-nuces/ctxdna/internal/compress/compresstest"
	"github.com/srl-nuces/ctxdna/internal/obs"
	"github.com/srl-nuces/ctxdna/internal/synth"
)

// TestInstrumentedRoundTripAllCodecs proves the observability wrapper is
// behavior-preserving for every registered codec: identical round-trips,
// one booked call per direction, byte volumes matching reality.
func TestInstrumentedRoundTripAllCodecs(t *testing.T) {
	names := compress.Names()
	if len(names) < 9 {
		t.Fatalf("only %d codecs registered: %v", len(names), names)
	}
	p := synth.Profile{Length: 12000, GC: 0.45, RepeatProb: 0.02, RepeatMin: 20, RepeatMax: 300, RCFraction: 0.3, MutationRate: 0.01}
	src := p.Generate(71)
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			c, err := compress.New(name)
			if err != nil {
				t.Fatal(err)
			}
			// Instrumented and raw codecs must produce identical bytes.
			raw, err2 := compress.New(name)
			if err2 != nil {
				t.Fatal(err2)
			}
			want, _, err := raw.Compress(src)
			if err != nil {
				t.Fatal(err)
			}
			if got := instrumentedRoundTrip(t, c, src); got != len(want) {
				t.Fatalf("instrumented compressed size %d, raw %d", got, len(want))
			}
		})
	}
}

// instrumentedRoundTrip wraps c with compress.Instrument over a fresh
// registry, round-trips src, and verifies the wrapper both preserved the
// codec's behavior and booked exactly one call with the right byte volumes
// in each direction. It returns the compressed size, like RoundTrip.
func instrumentedRoundTrip(t *testing.T, c compress.Codec, src []byte) int {
	t.Helper()
	reg := obs.NewRegistry()
	w := compress.Instrument(reg, c)
	if w.Name() != c.Name() {
		t.Fatalf("Instrument changed codec name: %q -> %q", c.Name(), w.Name())
	}
	n := compresstest.RoundTrip(t, w, src)
	for op, inOut := range map[string][2]int{
		"compress":   {len(src), n},
		"decompress": {n, len(src)},
	} {
		labels := []string{"codec", c.Name(), "op", op}
		if got := reg.Counter("dna_codec_calls_total", "", labels...).Value(); got != 1 {
			t.Errorf("%s: %s calls = %d, want 1", c.Name(), op, got)
		}
		if got := reg.Counter("dna_codec_in_bytes_total", "", labels...).Value(); got != uint64(inOut[0]) {
			t.Errorf("%s: %s in bytes = %d, want %d", c.Name(), op, got, inOut[0])
		}
		if got := reg.Counter("dna_codec_out_bytes_total", "", labels...).Value(); got != uint64(inOut[1]) {
			t.Errorf("%s: %s out bytes = %d, want %d", c.Name(), op, got, inOut[1])
		}
		if got := reg.Counter("dna_codec_corrupt_total", "", labels...).Value() +
			reg.Counter("dna_codec_failures_total", "", labels...).Value(); got != 0 {
			t.Errorf("%s: %s booked %d errors on a clean round-trip", c.Name(), op, got)
		}
	}
	return n
}
