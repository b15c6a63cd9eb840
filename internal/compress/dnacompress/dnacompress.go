// Package dnacompress implements a DNACompress-style codec (Chen, Li, Ma &
// Tromp, Bioinformatics 2002 — the paper's Table 1 row "DNACompress: Two
// pass algo, uses Pattern hunter approximate Repeats"). Its distinguishing
// idea is anchor discovery through *PatternHunter spaced seeds*: hashing
// only the care positions of the seed window lets an anchor tolerate
// substitutions inside the window, so heavily mutated repeats — invisible
// to contiguous k-mer seeds — still surface as candidates.
//
// Each anchor is validated and grown by the same bounded edit-distance
// extension GenCompress uses, but started from scratch (k = 0) so that
// don't-care-position mismatches inside the seed window become ordinary
// substitution ops. The stream is GenCompress's: package token's, with its
// Edit repeat records (distance - 1, length - MinLen, the edit script) and
// order-2 literals.
//
// Simplification: only direct-strand repeats are coded; the original also
// anchors complemented palindromes (documented divergence, DESIGN.md).
package dnacompress

import (
	"math/bits"

	"github.com/srl-nuces/ctxdna/internal/compress"
	"github.com/srl-nuces/ctxdna/internal/compress/token"
	"github.com/srl-nuces/ctxdna/internal/match"
)

func init() {
	compress.Register("dnacompress", func() compress.Codec { return New(Config{}) })
}

// Config tunes the codec; zero values select defaults.
type Config struct {
	// Seed is the spaced seed pattern (default the PatternHunter optimal
	// weight-11 seed).
	Seed string
	// MaxCandidates bounds anchors extended per position.
	MaxCandidates int
	// MinLen is the minimum approximate repeat worth a descriptor.
	MinLen int
	// Approx bounds the edit extension.
	Approx match.ApproxConfig
}

// Defaults.
const (
	DefaultMaxCandidates = 8
	DefaultMinLen        = 20
)

// Codec implements compress.Codec.
type Codec struct {
	cfg  Config
	seed match.SpacedSeed
}

// New returns a DNACompress codec. It panics on an invalid seed pattern
// (a programming error; use match.ParseSeed to validate user input).
func New(cfg Config) *Codec {
	if cfg.Seed == "" {
		cfg.Seed = match.PatternHunterSeed
	}
	seed, err := match.ParseSeed(cfg.Seed)
	if err != nil {
		panic(err)
	}
	if cfg.MaxCandidates == 0 {
		cfg.MaxCandidates = DefaultMaxCandidates
	}
	if cfg.MinLen == 0 {
		cfg.MinLen = DefaultMinLen
	}
	if cfg.MinLen < seed.Span() {
		cfg.MinLen = seed.Span()
	}
	if cfg.Approx == (match.ApproxConfig{}) {
		cfg.Approx = match.DefaultApproxConfig()
		cfg.Approx.MaxRun = 4 // seed windows carry interior mismatches
	}
	return &Codec{cfg: cfg, seed: seed}
}

// Name implements compress.Codec.
func (*Codec) Name() string { return "dnacompress" }

// Cost model: spaced hashing costs ~span ops per probe; the reference
// DNACompress binary ran PatternHunter as a separate pass ("faster than
// other algorithms" per the paper's §III — modest factors).
const (
	nsPerProbe          = 14.0
	nsPerExtend         = 4.0
	nsPerLiteral        = 55.0
	nsPerMatch          = 300.0
	nsPerOp             = 90.0
	nsPerCopied         = 4.0
	nsPerSearch         = 90.0
	nsPerIndexed        = 22.0
	startupCompressNS   = 10_000_000
	startupDecompressNS = 3_000_000
	implFactor          = 2.0
)

func (c *Codec) score(am match.ApproxMatch, pos int) int {
	if am.TLen < c.cfg.MinLen {
		return -1
	}
	cost := 2 + 2*bits.Len(uint(pos-am.Src)) + 2*bits.Len(uint(am.TLen-c.cfg.MinLen+1)) + 2*bits.Len(uint(len(am.Ops)+1)) + 8*len(am.Ops)
	return 2*am.TLen - cost - 8
}

// Compress implements compress.Codec.
func (c *Codec) Compress(src []byte) ([]byte, compress.Stats, error) {
	// Validate every symbol up front: a byte above 3 inside a repeat would
	// otherwise match its source through the 2-bit seed and be copied as
	// that source base.
	for i, s := range src {
		if s > 3 {
			return nil, compress.Stats{}, compress.Corruptf("dnacompress: invalid symbol %d at %d", s, i)
		}
	}
	idx := match.NewSpacedIndex(src, c.seed, 4*c.cfg.MaxCandidates)
	defer idx.Release()
	w := token.NewWriter(len(src), 2)

	var searchStats match.Stats

	i := 0
	for i < len(src) {
		idx.Advance(i)

		var best match.ApproxMatch
		bestScore := 0
		cands := 0
		idx.ForEachAnchor(i, func(j int) bool {
			// k = 0: the extension walks the seed window itself, turning
			// don't-care mismatches into substitution ops.
			am := match.ExtendApprox(src, j, i, 0, c.cfg.Approx, &searchStats, nil)
			if s := c.score(am, i); s > bestScore {
				best, bestScore = am, s
			}
			cands++
			return cands < c.cfg.MaxCandidates
		})

		if bestScore > 0 {
			w.Edit(uint64(i-best.Src-1), uint64(best.TLen-c.cfg.MinLen), uint64(len(best.Ops)), best.Ops, src[i:i+best.TLen])
			i += best.TLen
			continue
		}
		w.Literals(src[i : i+1])
		i++
	}
	out := w.Finish()

	st, n := idx.Stats(), w.Counts
	searchStats.Probes += st.Probes
	stats := compress.Stats{
		// float64(...) rounds each product on its own, so arm64 cannot fuse it
		// into the sum and move WorkNS (make fma-check).
		WorkNS: startupCompressNS + int64(implFactor*(float64(nsPerProbe*float64(searchStats.Probes))+
			float64(nsPerExtend*float64(searchStats.Extends))+
			float64(nsPerSearch*float64(n.Literals+n.Repeats))+float64(nsPerIndexed*float64(len(src)))+
			float64(nsPerLiteral*float64(n.Literals))+float64(nsPerMatch*float64(n.Repeats))+
			float64(nsPerOp*float64(n.Ops))+float64(nsPerCopied*float64(n.Copied)))),
		PeakMem: idx.MemoryFootprint() + w.ModelBytes(5) + len(src) + len(out),
	}
	return out, stats, nil
}

// Decompress implements compress.Codec.
func (c *Codec) Decompress(data []byte) ([]byte, compress.Stats, error) {
	return c.DecompressTo(nil, data)
}

// DecompressTo implements compress.Codec.
func (c *Codec) DecompressTo(dst, data []byte) ([]byte, compress.Stats, error) {
	r, err := token.NewReader(dst, data, "dnacompress", 2)
	if err != nil {
		return nil, compress.Stats{}, err
	}
	for r.Next() {
		if err := r.Edit(c.cfg.MinLen, c.cfg.Approx.MaxOps); err != nil {
			return nil, compress.Stats{}, err
		}
	}
	n := r.Counts
	st := compress.Stats{
		// float64(...) rounds each product on its own, so arm64 cannot fuse it
		// into the sum and move WorkNS (make fma-check).
		WorkNS: startupDecompressNS + int64(implFactor*(float64(nsPerLiteral*float64(n.Literals))+
			float64(nsPerMatch*float64(n.Repeats))+float64(nsPerOp*float64(n.Ops))+float64(nsPerCopied*float64(n.Copied)))),
		PeakMem: r.ModelBytes(5) + len(data) + len(r.Out),
	}
	return r.Out, st, nil
}
