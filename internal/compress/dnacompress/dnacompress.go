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
// substitution ops. The stream layout matches GenCompress's (flag, distance,
// length, edit script, order-2 literals).
//
// Simplification: only direct-strand repeats are coded; the original also
// anchors complemented palindromes (documented divergence, DESIGN.md).
package dnacompress

import (
	"encoding/binary"

	"github.com/srl-nuces/ctxdna/internal/arith"
	"github.com/srl-nuces/ctxdna/internal/compress"
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

func bitLen32(v int) int {
	n := 0
	for v > 0 {
		n++
		v >>= 1
	}
	return n
}

func (c *Codec) score(am match.ApproxMatch, pos int) int {
	if am.TLen < c.cfg.MinLen {
		return -1
	}
	cost := 2 + 2*bitLen32(pos-am.Src) + 2*bitLen32(am.TLen-c.cfg.MinLen+1) + 2*bitLen32(len(am.Ops)+1) + 8*len(am.Ops)
	return 2*am.TLen - cost - 8
}

// Compress implements compress.Codec.
func (c *Codec) Compress(src []byte) ([]byte, compress.Stats, error) {
	var hdr [binary.MaxVarintLen64]byte
	hn := binary.PutUvarint(hdr[:], uint64(len(src)))

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
	lit := arith.NewSymbolModel(2)
	flag := arith.NewProb()
	distM := arith.NewUintModel()
	lenM := arith.NewUintModel()
	opCountM := arith.NewUintModel()
	opOffM := arith.NewUintModel()
	kindProbs := arith.NewProbSlice(2)
	baseProbs := arith.NewProbSlice(2)
	enc := arith.NewEncoder(len(src)/3 + 64)

	var searchStats match.Stats
	var literals, matches, copied, opsEmitted int64

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
			enc.EncodeBit(&flag, 1)
			distM.Encode(enc, uint64(i-best.Src-1))
			lenM.Encode(enc, uint64(best.TLen-c.cfg.MinLen))
			opCountM.Encode(enc, uint64(len(best.Ops)))
			prevOff := 0
			for _, op := range best.Ops {
				encodeOpKind(enc, kindProbs, op.Kind)
				opOffM.Encode(enc, uint64(op.Off-prevOff))
				prevOff = op.Off
				if op.Kind != match.OpDel {
					enc.EncodeBit(&baseProbs[0], int(op.Base>>1))
					enc.EncodeBit(&baseProbs[1], int(op.Base&1))
				}
			}
			for t := 0; t < best.TLen; t++ {
				lit.Observe(src[i+t])
			}
			matches++
			copied += int64(best.TLen)
			opsEmitted += int64(len(best.Ops))
			i += best.TLen
			continue
		}
		enc.EncodeLiterals(&flag, lit, src[i:i+1])
		literals++
		i++
	}
	payload := enc.Finish()
	out := make([]byte, 0, hn+len(payload))
	out = append(out, hdr[:hn]...)
	out = append(out, payload...)

	st := idx.Stats()
	searchStats.Probes += st.Probes
	stats := compress.Stats{
		// float64(...) rounds each product on its own, so arm64 cannot fuse it
		// into the sum and move WorkNS (make fma-check).
		WorkNS: startupCompressNS + int64(implFactor*(float64(nsPerProbe*float64(searchStats.Probes))+
			float64(nsPerExtend*float64(searchStats.Extends))+
			float64(nsPerSearch*float64(literals+matches))+float64(nsPerIndexed*float64(len(src)))+
			float64(nsPerLiteral*float64(literals))+float64(nsPerMatch*float64(matches))+
			float64(nsPerOp*float64(opsEmitted))+float64(nsPerCopied*float64(copied)))),
		PeakMem: idx.MemoryFootprint() + lit.MemoryFootprint() + len(src) + len(out) + 5*distM.MemoryFootprint(),
	}
	return out, stats, nil
}

func encodeOpKind(e *arith.Encoder, probs []arith.Prob, k match.OpKind) {
	if k == match.OpSub {
		e.EncodeBit(&probs[0], 0)
		return
	}
	e.EncodeBit(&probs[0], 1)
	if k == match.OpIns {
		e.EncodeBit(&probs[1], 0)
	} else {
		e.EncodeBit(&probs[1], 1)
	}
}

func decodeOpKind(d *arith.Decoder, probs []arith.Prob) match.OpKind {
	if d.DecodeBit(&probs[0]) == 0 {
		return match.OpSub
	}
	if d.DecodeBit(&probs[1]) == 0 {
		return match.OpIns
	}
	return match.OpDel
}

// Decompress implements compress.Codec. The stream is structurally
// identical to GenCompress's, replayed the same way.
func (c *Codec) Decompress(data []byte) ([]byte, compress.Stats, error) {
	nBases, used := binary.Uvarint(data)
	if used <= 0 {
		return nil, compress.Stats{}, compress.Corruptf("dnacompress: bad length header")
	}
	if nBases > 1<<34 {
		return nil, compress.Stats{}, compress.Corruptf("dnacompress: implausible length %d", nBases)
	}
	lit := arith.NewSymbolModel(2)
	flag := arith.NewProb()
	distM := arith.NewUintModel()
	lenM := arith.NewUintModel()
	opCountM := arith.NewUintModel()
	opOffM := arith.NewUintModel()
	kindProbs := arith.NewProbSlice(2)
	baseProbs := arith.NewProbSlice(2)
	dec := arith.NewDecoder(data[used:])

	out := make([]byte, 0, compress.HeaderPrealloc(nBases))
	var literals, matches, copied, opsReplayed int64
	for {
		before := len(out)
		out = dec.DecodeLiterals(&flag, lit, out, nBases)
		literals += int64(len(out) - before)
		if uint64(len(out)) >= nBases {
			break
		}
		// The run stopped on a repeat flag.
		dist := int(distM.Decode(dec)) + 1
		srcPos := len(out) - dist
		tlen := int(lenM.Decode(dec)) + c.cfg.MinLen
		nOps := int(opCountM.Decode(dec))
		if srcPos < 0 || tlen <= 0 || uint64(len(out))+uint64(tlen) > nBases || nOps < 0 || nOps > tlen+c.cfg.Approx.MaxOps+1 {
			return nil, compress.Stats{}, compress.Corruptf("dnacompress: descriptor out of range (src %d len %d ops %d)", srcPos, tlen, nOps)
		}
		// nOps is bounded only by tlen, itself bounded only by the header's
		// nBases claim — commit memory as ops actually decode, not up front.
		ops := make([]match.EditOp, 0, min(nOps, 4096))
		prevOff := 0
		for oi := 0; oi < nOps; oi++ {
			kind := decodeOpKind(dec, kindProbs)
			off := prevOff + int(opOffM.Decode(dec))
			prevOff = off
			op := match.EditOp{Kind: kind, Off: off}
			if kind != match.OpDel {
				hi := dec.DecodeBit(&baseProbs[0])
				lo := dec.DecodeBit(&baseProbs[1])
				op.Base = byte(hi<<1 | lo)
			}
			if off > tlen {
				return nil, compress.Stats{}, compress.Corruptf("dnacompress: op offset %d beyond %d", off, tlen)
			}
			ops = append(ops, op)
		}
		start := len(out)
		s := srcPos
		opIdx := 0
		for len(out)-start < tlen {
			if opIdx < len(ops) && ops[opIdx].Off == len(out)-start {
				op := ops[opIdx]
				opIdx++
				switch op.Kind {
				case match.OpSub:
					out = append(out, op.Base)
					lit.Observe(op.Base)
					s++
				case match.OpIns:
					out = append(out, op.Base)
					lit.Observe(op.Base)
				case match.OpDel:
					s++
				}
				continue
			}
			if s < 0 || s >= start {
				return nil, compress.Stats{}, compress.Corruptf("dnacompress: replay source %d escapes processed region", s)
			}
			b := out[s]
			out = append(out, b)
			lit.Observe(b)
			s++
		}
		matches++
		copied += int64(tlen)
		opsReplayed += int64(nOps)
	}
	st := compress.Stats{
		// float64(...) rounds each product on its own, so arm64 cannot fuse it
		// into the sum and move WorkNS (make fma-check).
		WorkNS: startupDecompressNS + int64(implFactor*(float64(nsPerLiteral*float64(literals))+
			float64(nsPerMatch*float64(matches))+float64(nsPerOp*float64(opsReplayed))+float64(nsPerCopied*float64(copied)))),
		PeakMem: lit.MemoryFootprint() + len(data) + int(nBases) + 5*distM.MemoryFootprint(),
	}
	return out, st, nil
}
