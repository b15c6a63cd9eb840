// Package dnax implements the DNAX compressor evaluated in the paper
// (Manzini & Rastero, "A simple and fast DNA compressor", SP&E 2004 — the
// paper's reference [18]/[17] lineage). DNAX encodes *exact* direct and
// reverse-complement repeats only — the design decision that makes it the
// fastest DNA-aware codec in the study — and falls back to order-2
// arithmetic coding for literals, exactly the Table 1 row: "Exact Repeats
// and Reverse Complement | uses information in approximate repeats |
// Arithmetic coding".
//
// "Uses information in approximate repeats" is realized as the acceptance
// heuristic: an exact match is only emitted when its estimated descriptor
// cost undercuts coding the same span through the literal model, an estimate
// whose constants come from the surrounding (approximately repetitive)
// match statistics rather than from a fixed length threshold.
//
// The stream is package token's, with its Exact repeat records: an
// orientation bit, length - MinRepeat, and a direct repeat's distance
// minus one or a reverse complement's gap.
package dnax

import (
	"math/bits"

	"github.com/srl-nuces/ctxdna/internal/compress"
	"github.com/srl-nuces/ctxdna/internal/compress/token"
	"github.com/srl-nuces/ctxdna/internal/match"
)

func init() {
	compress.Register("dnax", func() compress.Codec { return New(Config{}) })
}

// Config tunes the codec; zero values select the defaults used throughout
// the experiments.
type Config struct {
	// MinRepeat is the smallest repeat length worth a descriptor. Zero
	// selects DefaultMinRepeat. The ablation bench sweeps this.
	MinRepeat int
	// MaxChain bounds the matcher's candidate walk. Zero selects
	// match.DefaultMaxChain.
	MaxChain int
	// LiteralOrder is the context order of the literal model (default 2,
	// the "order-2 arithmetic coding" of Table 1).
	LiteralOrder int
	// Stride is the source-anchor spacing, reproducing DNAX's B-block
	// fingerprint scheme: only block-aligned source positions anchor
	// repeats, which is what keeps DNAX's tables small and its compression
	// fast at a modest ratio cost versus exhaustive searchers. Default 8.
	Stride int
}

// Defaults.
const (
	// DefaultMinRepeat is the default minimum encodable repeat length.
	DefaultMinRepeat = 16
	// DefaultStride mirrors DNAX's default fingerprint block size.
	DefaultStride = 8
)

// Codec implements compress.Codec.
type Codec struct {
	cfg Config
}

// New returns a DNAX codec with the given configuration.
func New(cfg Config) *Codec {
	if cfg.MinRepeat == 0 {
		cfg.MinRepeat = DefaultMinRepeat
	}
	if cfg.MinRepeat < match.DefaultK {
		cfg.MinRepeat = match.DefaultK
	}
	if cfg.MaxChain == 0 {
		cfg.MaxChain = match.DefaultMaxChain
	}
	if cfg.LiteralOrder == 0 {
		cfg.LiteralOrder = 2
	}
	if cfg.Stride == 0 {
		cfg.Stride = DefaultStride
	}
	return &Codec{cfg: cfg}
}

// Name implements compress.Codec.
func (*Codec) Name() string { return "dnax" }

// Cost-model weights, first fitted to this package's benchmarks on the
// reference core. They model the paper's reference binary and stay fixed as
// this code gets faster: the selector trains on WorkNS, so measured time may
// drop while modeled time does not (see the cost-model item in ROADMAP.md).
const (
	nsPerProbe = 8.0 // chain candidate examined
	// startupCompressNS models the fixed per-invocation cost of the
	// measured reference binary: DNAX allocates and zeroes fingerprint and
	// suffix tables sized for its 10 MB input cap (hundreds of MB of pages)
	// before compressing anything — the dominant cost on small files and
	// the reason the paper's rules route sub-50 KB files to CTW or
	// GenCompress. Decompression needs none of those tables.
	startupCompressNS   = 120_000_000
	startupDecompressNS = 3_000_000
	nsPerExtend         = 2.0   // base comparison during extension
	nsPerLiteral        = 55.0  // order-2 arithmetic code/decode of one base
	nsPerMatch          = 220.0 // repeat descriptor encode/decode
	nsPerCopied         = 3.0   // base copied (and observed) during a repeat
	nsPerSearch         = 60.0  // k-mer packing + two bucket lookups per parse step (compress only)
	nsPerIndexed        = 15.0  // k-mer packing + chain insert per indexed position (compress only)
)

// Compress implements compress.Codec.
func (c *Codec) Compress(src []byte) ([]byte, compress.Stats, error) {
	// Validate every symbol up front: a byte above 3 inside a repeat would
	// otherwise match its source through the 2-bit anchor and be copied as
	// that source base.
	for i, s := range src {
		if s > 3 {
			return nil, compress.Stats{}, compress.Corruptf("dnax: invalid symbol %d at %d", s, i)
		}
	}
	m := match.NewHashMatcher(src, match.WithMaxChain(c.cfg.MaxChain), match.WithStride(c.cfg.Stride))
	defer m.Release()
	w := token.NewWriter(len(src), c.cfg.LiteralOrder)
	for i := 0; i < len(src); {
		// [i, j) are literals: FindBest would find both buckets empty at
		// each of them.
		j := m.NextCandidate(i)
		var mt match.Match
		repeat := false
		if j < len(src) {
			mt, repeat = m.FindBest(j)
			if repeat = repeat && c.accept(mt, j); !repeat {
				j++ // no repeat worth its descriptor: j is a literal too
			}
		}
		w.Literals(src[i:j])
		i = j
		if !repeat {
			continue
		}
		dist := i - mt.Src - 1
		if mt.RC {
			dist = i - (mt.Src + mt.Len)
		}
		w.Exact(mt.RC, uint64(mt.Len-c.cfg.MinRepeat), uint64(dist), src[i:i+mt.Len])
		i += mt.Len
	}
	out := w.Finish()

	ms, n := m.Stats(), w.Counts
	st := compress.Stats{
		// float64(...) rounds each product on its own, so arm64 cannot fuse it
		// into the sum and move WorkNS (make fma-check).
		WorkNS: startupCompressNS + int64(float64(nsPerProbe*float64(ms.Probes))+float64(nsPerExtend*float64(ms.Extends))+
			float64(nsPerSearch*float64(n.Literals+n.Repeats))+float64(nsPerIndexed*float64(len(src)))+
			float64(nsPerLiteral*float64(n.Literals))+float64(nsPerMatch*float64(n.Repeats))+float64(nsPerCopied*float64(n.Copied))),
		PeakMem: m.MemoryFootprint() + w.ModelBytes(2) + len(src) + len(out),
	}
	return out, st, nil
}

// accept applies the descriptor-cost heuristic: a repeat is worth emitting
// when its estimated cost (flag + orientation + adaptive gamma length +
// distance) plus a safety margin undercuts literal coding at ~2 bits/base.
func (c *Codec) accept(mt match.Match, pos int) bool {
	if mt.Len < c.cfg.MinRepeat {
		return false
	}
	dist := pos - mt.Src
	estBits := 2 + 2*bits.Len(uint(mt.Len-c.cfg.MinRepeat+1)) + 2*bits.Len(uint(dist+1))
	return estBits+8 < 2*mt.Len
}

// Decompress implements compress.Codec.
func (c *Codec) Decompress(data []byte) ([]byte, compress.Stats, error) {
	return c.DecompressTo(nil, data)
}

// DecompressTo implements compress.Codec.
func (c *Codec) DecompressTo(dst, data []byte) ([]byte, compress.Stats, error) {
	r, err := token.NewReader(dst, data, "dnax", c.cfg.LiteralOrder)
	if err != nil {
		return nil, compress.Stats{}, err
	}
	for r.Next() {
		if err := r.Exact(c.cfg.MinRepeat); err != nil {
			return nil, compress.Stats{}, err
		}
	}
	n := r.Counts
	st := compress.Stats{
		// Decompression skips all match finding: only literal decoding and
		// copying remain, which is why DNAX posts the best decompression
		// times in the paper.
		// float64(...) rounds each product on its own, so arm64 cannot fuse it
		// into the sum and move WorkNS (make fma-check).
		WorkNS:  startupDecompressNS + int64(float64(nsPerLiteral*float64(n.Literals))+float64(nsPerMatch*float64(n.Repeats))+float64(nsPerCopied*float64(n.Copied))),
		PeakMem: r.ModelBytes(2) + len(data) + len(r.Out),
	}
	return r.Out, st, nil
}
