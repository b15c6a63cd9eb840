package dnax

import (
	"math/rand"
	"testing"

	"github.com/srl-nuces/ctxdna/internal/compress"
	"github.com/srl-nuces/ctxdna/internal/compress/compresstest"
	"github.com/srl-nuces/ctxdna/internal/match"
	"github.com/srl-nuces/ctxdna/internal/seq"
	"github.com/srl-nuces/ctxdna/internal/synth"
)

func TestConformance(t *testing.T) {
	compresstest.Conformance(t, func() compress.Codec { return New(Config{}) })
}

func TestConformanceTightChain(t *testing.T) {
	compresstest.Conformance(t, func() compress.Codec { return New(Config{MaxChain: 4, MinRepeat: 20}) })
}

func TestRepeatRichBeatsTwoBit(t *testing.T) {
	p := synth.Profile{Name: "rich", Length: 80000, GC: 0.4, RepeatProb: 0.025, RepeatMin: 30, RepeatMax: 800, RCFraction: 0.2, MutationRate: 0.005}
	compresstest.RatioUnder(t, New(Config{}), p, 42, 1.7)
}

func TestReverseComplementExploited(t *testing.T) {
	// A sequence that is literally block + RC(block): the codec must spend
	// almost nothing on the second half.
	p := synth.Profile{Length: 30000, GC: 0.5}
	half := p.Generate(9)
	full := append(append([]byte{}, half...), seq.ReverseComplement(half)...)
	c := New(Config{})
	data, _, err := c.Compress(full)
	if err != nil {
		t.Fatal(err)
	}
	baseline, _, err := c.Compress(half)
	if err != nil {
		t.Fatal(err)
	}
	// The doubled sequence should cost barely more than the half.
	if float64(len(data)) > 1.1*float64(len(baseline)) {
		t.Fatalf("palindrome not exploited: full %d bytes vs half %d", len(data), len(baseline))
	}
}

func TestDecompressionMuchCheaperThanCompression(t *testing.T) {
	// The defining DNAX property in the paper: decompression skips match
	// finding entirely and is far cheaper than compression.
	p := synth.Profile{Length: 60000, GC: 0.4, RepeatProb: 0.015, RepeatMin: 20, RepeatMax: 400, RCFraction: 0.2, MutationRate: 0.01}
	src := p.Generate(3)
	c := New(Config{})
	data, cst, err := c.Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	_, dst, err := c.Decompress(data)
	if err != nil {
		t.Fatal(err)
	}
	// Compare marginal (per-byte) work: the fixed startup cost applies to
	// both directions and is assessed separately by the small-file tests.
	if (dst.WorkNS-startupDecompressNS)*2 > cst.WorkNS-startupCompressNS {
		t.Fatalf("marginal decompress work %d not well below compress work %d",
			dst.WorkNS-startupDecompressNS, cst.WorkNS-startupCompressNS)
	}
}

func TestMinRepeatMonotonicity(t *testing.T) {
	// Raising the minimum repeat length cannot make the parse denser: with
	// a very high threshold the codec degenerates toward pure order-2.
	p := synth.Profile{Length: 40000, GC: 0.4, RepeatProb: 0.02, RepeatMin: 20, RepeatMax: 300, MutationRate: 0.01}
	src := p.Generate(5)
	loose, _, err := New(Config{MinRepeat: 16}).Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	strict, _, err := New(Config{MinRepeat: 256}).Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(strict) < len(loose) {
		t.Fatalf("stricter threshold compressed better: %d < %d", len(strict), len(loose))
	}
	// Both must round-trip regardless.
	for _, cfg := range []Config{{MinRepeat: 16}, {MinRepeat: 256}} {
		compresstest.RoundTrip(t, New(cfg), src)
	}
}

func TestRejectsInvalidSymbol(t *testing.T) {
	if _, _, err := New(Config{}).Compress([]byte{1, 2, 9}); err == nil {
		t.Fatal("accepted invalid symbol")
	}
}

func TestRejectsTruncatedHeader(t *testing.T) {
	if _, _, err := New(Config{}).Decompress(nil); err == nil {
		t.Fatal("accepted empty input")
	}
}

// parseShares replays Compress's parse over src a position at a time and
// returns the share of parse steps that code a literal and the share that
// find both hash buckets empty: FindBest probes nothing. Compress passes
// over the empty steps in one NextCandidate scan and codes the literals
// as runs.
func parseShares(c *Codec, src []byte) (literal, empty float64) {
	m := match.NewHashMatcher(src, match.WithMaxChain(c.cfg.MaxChain), match.WithStride(c.cfg.Stride))
	defer m.Release()
	var steps, literals, empties int
	for i := 0; i < len(src); steps++ {
		m.Advance(i)
		probes := m.Stats().Probes
		mt, ok := m.FindBest(i)
		if m.Stats().Probes == probes {
			empties++
		}
		if ok && c.accept(mt, i) {
			i += mt.Len
			continue
		}
		literals++
		i++
	}
	return float64(literals) / float64(steps), float64(empties) / float64(steps)
}

// exchangeBlocks is exchange traffic as the codec sees it: perfbench's
// generate profile (GC 0.35–0.55, sparse repeats of 16–128 bases) at four
// sizes spread over exchange's 256 Ki–1 Mi bases, cut into the 64 KiB
// blocks of its CXB1 containers.
func exchangeBlocks() (blocks [][]byte, bases int) {
	const n, lo, hi = 4, 256 << 10, 1 << 20
	rng := rand.New(rand.NewSource(2015))
	for i := 0; i < n; i++ {
		p := synth.Profile{Length: lo + (hi-lo)*i/(n-1), GC: 0.35 + 0.2*rng.Float64(), RepeatProb: 0.002, RepeatMin: 16, RepeatMax: 128}
		src := p.Generate(int64(i + 1))
		blocks = append(blocks, splitBlocks(src)...)
		bases += len(src)
	}
	return blocks, bases
}

// splitBlocks cuts src into the 64 KiB blocks of a CXB1 container.
func splitBlocks(src []byte) [][]byte {
	const blockSize = 64 << 10
	var blocks [][]byte
	for off := 0; off < len(src); off += blockSize {
		blocks = append(blocks, src[off:min(off+blockSize, len(src))])
	}
	return blocks
}

// tandem repeats a random 13-base motif over n bases and replaces a tenth
// of the bases at random. Far more parse steps than on exchange's blocks
// find a non-empty bucket and walk a chain, yet nine in ten still code a
// literal: most repeats end at a replaced base before they pay for a
// descriptor. Literal runs are short, so little is left for the scan to
// pass over.
func tandem(n int) []byte {
	rng := rand.New(rand.NewSource(5))
	motif := make([]byte, 13)
	for i := range motif {
		motif[i] = byte(rng.Intn(4))
	}
	data := make([]byte, n)
	for i := range data {
		data[i] = motif[i%len(motif)]
		if rng.Float64() < 0.1 {
			data[i] = byte(rng.Intn(4))
		}
	}
	return data
}

// benchInputs are the inputs of the dnax benchmarks: exchange's blocks,
// TestRepeatRichBeatsTwoBit's input, on which far more steps walk a chain
// or copy a repeat, and a tandem repeat in the same 64 KiB blocks, on
// which most literal runs are a few bases long.
func benchInputs() []struct {
	name   string
	blocks [][]byte
	bases  int
} {
	blocks, bases := exchangeBlocks()
	rich := synth.Profile{Name: "rich", Length: 80000, GC: 0.4, RepeatProb: 0.025, RepeatMin: 30, RepeatMax: 800, RCFraction: 0.2, MutationRate: 0.005}.Generate(42)
	const tandemBases = 256 << 10
	return []struct {
		name   string
		blocks [][]byte
		bases  int
	}{{"exchange", blocks, bases}, {"repeat-rich", [][]byte{rich}, len(rich)}, {"tandem", splitBlocks(tandem(tandemBases)), tandemBases}}
}

// reportShares adds the parse shares of blocks to b's results, in percent.
// It runs after the timed loop, whose ResetTimer would drop them.
func reportShares(b *testing.B, c *Codec, blocks [][]byte) {
	var literal, empty float64
	for _, blk := range blocks {
		l, e := parseShares(c, blk)
		literal += l / float64(len(blocks))
		empty += e / float64(len(blocks))
	}
	b.ReportMetric(100*literal, "literal-%")
	b.ReportMetric(100*empty, "empty-%")
}

// BenchmarkExchangeBlocksCompress and BenchmarkExchangeBlocksDecompress
// time dnax on two goroutines, as exchange's client and the daemon's two
// workers run it, in ns per base; build parent and change with
// `go test -c` and alternate them. Each also reports the share of parse
// steps that code a literal and that find both buckets empty.
func BenchmarkExchangeBlocksCompress(b *testing.B) {
	for _, in := range benchInputs() {
		b.Run(in.name, func(b *testing.B) {
			c := New(Config{})
			compresstest.BenchTwoWorkers(b, len(in.blocks), in.bases, func(i int) error {
				_, _, err := c.Compress(in.blocks[i])
				return err
			})
			reportShares(b, c, in.blocks)
		})
	}
}

func BenchmarkExchangeBlocksDecompress(b *testing.B) {
	for _, in := range benchInputs() {
		b.Run(in.name, func(b *testing.B) {
			c := New(Config{})
			frames := make([][]byte, len(in.blocks))
			for i, blk := range in.blocks {
				var err error
				if frames[i], _, err = c.Compress(blk); err != nil {
					b.Fatal(err)
				}
			}
			compresstest.BenchTwoWorkers(b, len(frames), in.bases, func(i int) error {
				_, _, err := c.Decompress(frames[i])
				return err
			})
			reportShares(b, c, in.blocks)
		})
	}
}

func BenchmarkCompress(b *testing.B) {
	p := synth.Profile{Length: 1 << 18, GC: 0.4, RepeatProb: 0.015, RepeatMin: 20, RepeatMax: 400, RCFraction: 0.2, MutationRate: 0.01}
	src := p.Generate(1)
	c := New(Config{})
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Compress(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompress(b *testing.B) {
	p := synth.Profile{Length: 1 << 18, GC: 0.4, RepeatProb: 0.015, RepeatMin: 20, RepeatMax: 400, RCFraction: 0.2, MutationRate: 0.01}
	src := p.Generate(1)
	c := New(Config{})
	data, _, err := c.Compress(src)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Decompress(data); err != nil {
			b.Fatal(err)
		}
	}
}
