// Package compresstest provides the conformance suite every codec in this
// repository must pass: exact round-trips over the benchmark corpus,
// degenerate inputs, and randomized property tests via testing/quick.
package compresstest

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"github.com/srl-nuces/ctxdna/internal/compress"
	"github.com/srl-nuces/ctxdna/internal/obs"
	"github.com/srl-nuces/ctxdna/internal/seq"
	"github.com/srl-nuces/ctxdna/internal/synth"
)

// RoundTrip compresses src and verifies exact reconstruction, returning the
// compressed size. It fails the test on any error or mismatch.
func RoundTrip(t *testing.T, c compress.Codec, src []byte) int {
	t.Helper()
	data, cst, err := c.Compress(src)
	if err != nil {
		t.Fatalf("%s: Compress(%d bases): %v", c.Name(), len(src), err)
	}
	got, dst, err := c.Decompress(data)
	if err != nil {
		t.Fatalf("%s: Decompress(%d bytes): %v", c.Name(), len(data), err)
	}
	if !bytes.Equal(got, src) {
		i := firstDiff(got, src)
		t.Fatalf("%s: round trip mismatch: len got %d want %d, first diff at %d",
			c.Name(), len(got), len(src), i)
	}
	if cst.WorkNS < 0 || dst.WorkNS < 0 {
		t.Fatalf("%s: negative modeled work", c.Name())
	}
	if len(src) > 0 && cst.PeakMem <= 0 {
		t.Fatalf("%s: non-positive peak memory %d", c.Name(), cst.PeakMem)
	}
	return len(data)
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// Conformance runs the full shared suite against a fresh codec from ctor.
func Conformance(t *testing.T, ctor func() compress.Codec) {
	t.Helper()

	t.Run("Empty", func(t *testing.T) {
		RoundTrip(t, ctor(), nil)
		RoundTrip(t, ctor(), []byte{})
	})

	t.Run("TinyInputs", func(t *testing.T) {
		c := ctor()
		for n := 1; n <= 40; n++ {
			s := make([]byte, n)
			for i := range s {
				s[i] = byte((i*5 + n) % 4)
			}
			RoundTrip(t, c, s)
		}
	})

	t.Run("Homopolymer", func(t *testing.T) {
		for _, base := range []byte{seq.A, seq.C, seq.G, seq.T} {
			RoundTrip(t, ctor(), bytes.Repeat([]byte{base}, 5000))
		}
	})

	t.Run("PeriodicRuns", func(t *testing.T) {
		RoundTrip(t, ctor(), bytes.Repeat([]byte{0, 1, 2, 3}, 2000))
		RoundTrip(t, ctor(), bytes.Repeat([]byte{0, 0, 1}, 3000))
	})

	t.Run("RandomIID", func(t *testing.T) {
		p := synth.Profile{Length: 20000, GC: 0.5}
		RoundTrip(t, ctor(), p.Generate(101))
	})

	t.Run("RepeatRich", func(t *testing.T) {
		p := synth.Profile{Length: 30000, GC: 0.4, RepeatProb: 0.02, RepeatMin: 20, RepeatMax: 500, RCFraction: 0.25, MutationRate: 0.01}
		RoundTrip(t, ctor(), p.Generate(102))
	})

	t.Run("PalindromeRich", func(t *testing.T) {
		p := synth.Profile{Length: 20000, GC: 0.5, RepeatProb: 0.02, RepeatMin: 20, RepeatMax: 300, RCFraction: 0.9, MutationRate: 0.005}
		RoundTrip(t, ctor(), p.Generate(103))
	})

	t.Run("BenchmarkCorpusSmall", func(t *testing.T) {
		// The two smallest corpus members keep the conformance suite fast;
		// full-corpus ratios are exercised by the experiment tests.
		for _, prof := range synth.Benchmark() {
			if prof.Length > 60000 {
				continue
			}
			prof := prof
			t.Run(prof.Name, func(t *testing.T) {
				RoundTrip(t, ctor(), prof.Generate(2015))
			})
		}
	})

	t.Run("QuickRandom", func(t *testing.T) {
		c := ctor()
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 25; trial++ {
			n := rng.Intn(4000)
			s := make([]byte, n)
			for i := range s {
				s[i] = byte(rng.Intn(4))
			}
			RoundTrip(t, c, s)
		}
	})

	t.Run("MutatedCopy", func(t *testing.T) {
		// Two near-identical halves: the 99.9 % intra-species similarity
		// scenario from the paper's background section.
		p := synth.Profile{Length: 15000, GC: 0.45}
		first := p.Generate(55)
		second := append([]byte{}, first...)
		rng := rand.New(rand.NewSource(56))
		for i := range second {
			if rng.Float64() < 0.001 {
				second[i] = (second[i] + byte(1+rng.Intn(3))) & 3
			}
		}
		RoundTrip(t, ctor(), append(first, second...))
	})

	t.Run("DecompressGarbage", func(t *testing.T) {
		// Arbitrary bytes must never panic; error or garbage-free failure
		// both acceptable, silent success on clearly-truncated framing not.
		c := ctor()
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s: Decompress panicked: %v", c.Name(), r)
			}
		}()
		inputs := [][]byte{
			{0xff}, {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
			bytes.Repeat([]byte{0xA5}, 100),
		}
		for _, in := range inputs {
			c.Decompress(in) // must not panic
		}
	})
}

// DecompressToAgrees checks c.DecompressTo against c.Decompress on data in
// the four ways a caller can hand it a buffer: nil, one with room for the
// output (whose array the result must then share), one too short, and one
// with room whose bytes are garbage. Each call must give Decompress's
// verdict and, on success, its symbols and Stats: no stream may surface a
// byte the buffer held before.
func DecompressToAgrees(t *testing.T, c compress.Codec, data []byte) {
	t.Helper()
	want, wantSt, wantErr := c.Decompress(data)
	n := len(want)
	garbage := func(size int) []byte { return bytes.Repeat([]byte{0xEE}, size) }
	for _, tc := range []struct {
		name   string
		dst    []byte
		shares bool // the result must live in dst's array
	}{
		{"nil", nil, false},
		{"room", make([]byte, 0, n+16), true},
		{"short", garbage(n / 2), false},
		{"garbage", garbage(n + 16), true},
	} {
		got, st, err := c.DecompressTo(tc.dst, data)
		switch {
		case (err == nil) != (wantErr == nil) || errors.Is(err, compress.ErrCorrupt) != errors.Is(wantErr, compress.ErrCorrupt):
			t.Fatalf("%s: DecompressTo into %s buffer: error %v, Decompress's %v", c.Name(), tc.name, err, wantErr)
		case err != nil:
		case !bytes.Equal(got, want):
			t.Fatalf("%s: DecompressTo into %s buffer restored other symbols than Decompress (first diff at %d)", c.Name(), tc.name, firstDiff(got, want))
		case st != wantSt:
			t.Fatalf("%s: DecompressTo into %s buffer: Stats %+v, Decompress's %+v", c.Name(), tc.name, st, wantSt)
		case tc.shares && n > 0 && &got[0] != &tc.dst[:1][0]:
			t.Fatalf("%s: DecompressTo into %s buffer with room for %d symbols restored them elsewhere", c.Name(), tc.name, n)
		}
	}
}

// InstrumentedRoundTrip wraps c with compress.Instrument over a fresh
// registry, round-trips src, and verifies the wrapper both preserved the
// codec's behavior and booked exactly one call with the right byte volumes
// in each direction. It returns the compressed size, like RoundTrip.
func InstrumentedRoundTrip(t *testing.T, c compress.Codec, src []byte) int {
	t.Helper()
	reg := obs.NewRegistry()
	w := compress.Instrument(reg, c)
	if w.Name() != c.Name() {
		t.Fatalf("Instrument changed codec name: %q -> %q", c.Name(), w.Name())
	}
	n := RoundTrip(t, w, src)
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

// RatioUnder asserts the codec compresses the given profile below maxBitsPerBase.
func RatioUnder(t *testing.T, c compress.Codec, p synth.Profile, seed int64, maxBitsPerBase float64) {
	t.Helper()
	src := p.Generate(seed)
	data, _, err := c.Compress(src)
	if err != nil {
		t.Fatalf("%s: %v", c.Name(), err)
	}
	if bpb := compress.Ratio(len(src), len(data)); bpb > maxBitsPerBase {
		t.Fatalf("%s on %s: %.3f bits/base, want <= %.3f", c.Name(), p.Name, bpb, maxBitsPerBase)
	}
}

// BenchTwoWorkers runs op over every input index below n on each of two
// goroutines, as the daemon's two workers do, the second starting half a
// set ahead, and reports wall time per base of one worker's share (bases
// is the set's total). Wall time on a VM with stolen CPU is noisy: compare
// two builds in alternating runs.
func BenchTwoWorkers(b *testing.B, n, bases int, op func(i int) error) {
	const workers = 2
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		var wg sync.WaitGroup
		errs := make([]error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for k := 0; k < n && errs[w] == nil; k++ {
					errs[w] = op((k + w*n/2) % n)
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(bases), "ns/base")
}
