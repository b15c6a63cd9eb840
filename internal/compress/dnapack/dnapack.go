// Package dnapack implements a DNAPack-style compressor (Behzadi & Le
// Fessant, CPM 2005 — the paper's Table 1 row "DNAPack: Dynamic programming
// to search repeats | Hamming distance | order-2 arithmetic coding or
// context tree weighting or naïve 2-bits").
//
// Unlike the greedy parsers (DNAX, GenCompress, BioCompress), DNAPack picks
// its repeat cover by dynamic programming: a backward pass computes, for
// every position, the cheapest encoding of the remaining suffix, choosing
// between a literal and every candidate repeat (exact matches extended with
// Hamming-distance substitutions); the forward pass then emits the optimal
// decisions. Candidates at each position are gathered in a prior
// left-to-right pass so that every repeat's source lies strictly in the
// decoded prefix.
//
// The stream is package token's, with its Subs repeat records: distance
// - 1, length - MinRepeat and the substitutions, with order-2 literals.
package dnapack

import (
	"math/bits"

	"github.com/srl-nuces/ctxdna/internal/compress"
	"github.com/srl-nuces/ctxdna/internal/compress/token"
	"github.com/srl-nuces/ctxdna/internal/match"
)

func init() {
	compress.Register("dnapack", func() compress.Codec { return New(Config{}) })
}

// Config tunes the codec; zero values select defaults.
type Config struct {
	MinRepeat int // minimum repeat length (default 16)
	MaxChain  int // matcher candidate walk bound
	MaxSubs   int // Hamming substitution budget per repeat (default 8)
}

// Defaults.
const (
	DefaultMinRepeat = 16
	DefaultMaxSubs   = 8
)

// Codec implements compress.Codec.
type Codec struct {
	cfg Config
}

// New returns a DNAPack codec.
func New(cfg Config) *Codec {
	if cfg.MinRepeat == 0 {
		cfg.MinRepeat = DefaultMinRepeat
	}
	if cfg.MinRepeat < match.DefaultK {
		cfg.MinRepeat = match.DefaultK
	}
	if cfg.MaxChain == 0 {
		// The DP gathers candidates at *every* position (greedy parsers
		// only search at parse positions), so the per-position chain walk
		// is kept shorter to stay near the greedy coders' total search cost.
		cfg.MaxChain = 16
	}
	if cfg.MaxSubs == 0 {
		cfg.MaxSubs = DefaultMaxSubs
	}
	return &Codec{cfg: cfg}
}

// Name implements compress.Codec.
func (*Codec) Name() string { return "dnapack" }

// candidate is one approximate repeat usable at a target position.
type candidate struct {
	src  int
	tlen int
	subs []match.EditOp // OpSub only
}

// Cost estimates in integer "centibits" so the DP stays in int64.
const (
	literalCB = 195 // ~1.95 bits through order-2 on DNA
	flagCB    = 10
	subCB     = 900 // offset delta + base, adaptive average
)

func descriptorCB(c candidate, pos int) int64 {
	dist := pos - c.src
	return int64(flagCB + 100*(2*bits.Len(uint(dist))+2*bits.Len(uint(c.tlen))+2*bits.Len(uint(len(c.subs)+1))) +
		subCB*len(c.subs))
}

// Cost model: candidate gathering mirrors DNAX's search plus a Hamming
// extension per candidate; the DP adds two linear passes. The reference
// DNAPack binary is research-grade, though less extreme than GenCompress.
const (
	nsPerProbe          = 8.0
	nsPerExtend         = 3.0
	nsPerLiteral        = 55.0
	nsPerMatch          = 260.0
	nsPerCopied         = 3.5
	nsPerSearch         = 70.0
	nsPerIndexed        = 15.0
	nsPerDPStep         = 12.0
	startupCompressNS   = 15_000_000
	startupDecompressNS = 3_000_000
	implFactor          = 2.0
)

// Compress implements compress.Codec.
func (c *Codec) Compress(src []byte) ([]byte, compress.Stats, error) {
	for i, s := range src {
		if s > 3 {
			return nil, compress.Stats{}, compress.Corruptf("dnapack: invalid symbol %d at %d", s, i)
		}
	}

	// Pass 1 (left to right): gather the best candidate per position with
	// sources strictly inside the prefix.
	m := match.NewHashMatcher(src, match.WithMaxChain(c.cfg.MaxChain))
	defer m.Release()
	var searchStats match.Stats
	approxCfg := match.ApproxConfig{MaxOps: c.cfg.MaxSubs, MaxRun: 2, Lookahead: 4, HammingOnly: true}
	cands := make([]candidate, len(src))
	for i := range src {
		m.Advance(i)
		mt, ok := m.FindForward(i)
		if !ok || mt.Src+mt.Len > i {
			continue
		}
		am := match.ExtendApprox(src, mt.Src, i, mt.Len, approxCfg, &searchStats, nil)
		if am.TLen < c.cfg.MinRepeat {
			continue
		}
		cands[i] = candidate{src: am.Src, tlen: am.TLen, subs: am.Ops}
	}

	// Pass 2 (right to left): DP over suffix costs.
	n := len(src)
	cost := make([]int64, n+1)
	take := make([]bool, n)
	for i := n - 1; i >= 0; i-- {
		cost[i] = cost[i+1] + literalCB + flagCB
		if cd := cands[i]; cd.tlen > 0 {
			if alt := cost[i+cd.tlen] + descriptorCB(cd, i); alt < cost[i] {
				cost[i] = alt
				take[i] = true
			}
		}
	}

	// Pass 3: emit the optimal parse.
	w := token.NewWriter(n, 2)
	i := 0
	for i < n {
		if take[i] {
			cd := cands[i]
			w.Subs(uint64(i-cd.src-1), uint64(cd.tlen-c.cfg.MinRepeat), uint64(len(cd.subs)), cd.subs, src[i:i+cd.tlen])
			i += cd.tlen
			continue
		}
		j := i + 1
		for j < n && !take[j] {
			j++
		}
		w.Literals(src[i:j])
		i = j
	}
	out := w.Finish()

	ms, k := m.Stats(), w.Counts
	searchStats.Probes += ms.Probes
	searchStats.Extends += ms.Extends
	st := compress.Stats{
		// float64(...) rounds each product on its own, so arm64 cannot fuse it
		// into the sum and move WorkNS (make fma-check).
		WorkNS: startupCompressNS + int64(implFactor*(float64(nsPerProbe*float64(searchStats.Probes))+
			float64(nsPerExtend*float64(searchStats.Extends))+float64(nsPerSearch*float64(n))+
			float64(nsPerIndexed*float64(n))+float64(nsPerDPStep*float64(n))+
			float64(nsPerLiteral*float64(k.Literals))+float64(nsPerMatch*float64(k.Repeats))+float64(nsPerCopied*float64(k.Copied)))),
		PeakMem: m.MemoryFootprint() + w.ModelBytes(0) +
			16*n + // cands + cost + take
			len(src) + len(out),
	}
	return out, st, nil
}

// Decompress implements compress.Codec.
func (c *Codec) Decompress(data []byte) ([]byte, compress.Stats, error) {
	return c.DecompressTo(nil, data)
}

// DecompressTo implements compress.Codec.
func (c *Codec) DecompressTo(dst, data []byte) ([]byte, compress.Stats, error) {
	r, err := token.NewReader(dst, data, "dnapack", 2)
	if err != nil {
		return nil, compress.Stats{}, err
	}
	for r.Next() {
		if err := r.Subs(c.cfg.MinRepeat, c.cfg.MaxSubs); err != nil {
			return nil, compress.Stats{}, err
		}
	}
	n := r.Counts
	st := compress.Stats{
		// float64(...) rounds each product on its own, so arm64 cannot fuse it
		// into the sum and move WorkNS (make fma-check).
		WorkNS: startupDecompressNS + int64(implFactor*(float64(nsPerLiteral*float64(n.Literals))+
			float64(nsPerMatch*float64(n.Repeats))+float64(nsPerCopied*float64(n.Copied)))),
		PeakMem: r.ModelBytes(0) + len(data) + len(r.Out),
	}
	return r.Out, st, nil
}
