// Package gencompress implements the GenCompress algorithm (Chen, Kwong &
// Li — the paper's reference [14] lineage): substitution compression via
// *approximate* repeats. At each position the encoder enumerates candidate
// anchors in the processed prefix, extends every candidate with bounded
// edit operations (insert / delete / replace, GenCompress-2) or with
// substitutions only (Hamming distance, GenCompress-1), scores the encoded
// cost of each resulting approximate repeat, and emits the winner when it
// undercuts literal coding; otherwise a literal goes through an order-2
// arithmetic coder.
//
// This candidate × extension search is exactly why GenCompress posts the
// best compression ratios but the worst compression times in the paper's
// Figure 5 — and why its decompression (a mere replay of edit scripts) is
// fast, near DNAX's.
//
// Stream layout after a uvarint base-count header (one range-coder stream):
//
//	token   : flag bit (0 literal / 1 repeat)
//	literal : symbol through order-2 context model
//	repeat  : distance-1      (UintModel)
//	          tlen - minLen   (UintModel)
//	          opCount         (UintModel)
//	          ops             (kind: 2 adaptive bits; delta-offset: UintModel;
//	                           base for sub/ins: 2 adaptive bits)
package gencompress

import (
	"encoding/binary"

	"github.com/srl-nuces/ctxdna/internal/arith"
	"github.com/srl-nuces/ctxdna/internal/compress"
	"github.com/srl-nuces/ctxdna/internal/match"
)

func init() {
	compress.Register("gencompress", func() compress.Codec { return New(Config{}) })
}

// Config tunes the search. Zero values select the defaults.
type Config struct {
	// Mode1 selects GenCompress-1 (Hamming distance: substitutions only).
	// Default is GenCompress-2 (full edit operations).
	Mode1 bool
	// MaxCandidates bounds how many anchors are approximately extended per
	// position; the dominant time knob (ablated in the bench suite).
	MaxCandidates int
	// MinLen is the minimum approximate-repeat length worth a descriptor.
	MinLen int
	// SeedK is the anchor k-mer length. GenCompress uses *short* seeds
	// (default 6) so that mutated repeats still anchor somewhere — the
	// faithful reproduction of its near-exhaustive prefix search, and the
	// reason its candidate lists (and compression times) dwarf DNAX's.
	SeedK int
	// Approx bounds the per-repeat edit search.
	Approx match.ApproxConfig
}

// Defaults.
const (
	DefaultMaxCandidates = 8
	DefaultMinLen        = 16
	DefaultSeedK         = 6
)

// Codec implements compress.Codec.
type Codec struct {
	cfg Config
}

// New returns a GenCompress codec.
func New(cfg Config) *Codec {
	if cfg.MaxCandidates == 0 {
		cfg.MaxCandidates = DefaultMaxCandidates
	}
	if cfg.MinLen == 0 {
		cfg.MinLen = DefaultMinLen
	}
	if cfg.SeedK == 0 {
		cfg.SeedK = DefaultSeedK
	}
	if cfg.MinLen < cfg.SeedK {
		cfg.MinLen = cfg.SeedK
	}
	if cfg.Approx == (match.ApproxConfig{}) {
		cfg.Approx = match.DefaultApproxConfig()
	}
	cfg.Approx.HammingOnly = cfg.Mode1
	return &Codec{cfg: cfg}
}

// Name implements compress.Codec.
func (*Codec) Name() string { return "gencompress" }

// Cost-model weights, first fitted to this package's benchmarks; the
// candidate loop is charged per probe and per extension comparison, which is
// where GenCompress's time goes. They model the paper's reference binary and
// stay fixed as this code gets faster: the selector trains on WorkNS, so
// measured time may drop while modeled time does not (see the cost-model
// item in ROADMAP.md).
const (
	nsPerProbe = 10.0
	// startupNS models the fixed per-invocation cost of the measured
	// reference binary (process spawn, table/model allocation and zeroing,
	// I/O setup). GenCompress's tables grow with the input, so its
	// fixed cost is small.
	startupNS    = 3_000_000
	nsPerExtend  = 4.0
	nsPerLiteral = 55.0
	nsPerMatch   = 320.0
	nsPerOp      = 90.0
	nsPerCopied  = 4.0
	nsPerSearch  = 80.0
	nsPerIndexed = 15.0

	// implFactor models the research-grade reference implementation the
	// paper actually benchmarked: the original GenCompress executable keeps
	// no k-mer index at all — it scans the processed prefix per position —
	// and is unoptimized throughout (per-symbol dispatch, unbuffered I/O).
	// It runs several times slower than the algorithmic operation count of
	// this re-implementation implies; the paper's timings are of that
	// binary, so the deterministic model carries the factor. DNAX's
	// reference tool ("a simple and FAST dna compressor") needs none.
	implFactor = 4.0
)

func bitLen32(v int) int {
	n := 0
	for v > 0 {
		n++
		v >>= 1
	}
	return n
}

// score estimates the bit gain of emitting am at position pos: bases covered
// at ~2 bits each minus the descriptor cost.
func (c *Codec) score(am match.ApproxMatch, pos int) int {
	if am.TLen < c.cfg.MinLen {
		return -1
	}
	dist := pos - am.Src
	cost := 2 + 2*bitLen32(dist) + 2*bitLen32(am.TLen-c.cfg.MinLen+1) + 2*bitLen32(len(am.Ops)+1)
	for range am.Ops {
		cost += 2 + 4 + 2 // kind + delta + base, rough adaptive averages
	}
	return 2*am.TLen - cost - 8
}

// Compress implements compress.Codec.
func (c *Codec) Compress(src []byte) ([]byte, compress.Stats, error) {
	var hdr [binary.MaxVarintLen64]byte
	hn := binary.PutUvarint(hdr[:], uint64(len(src)))

	// Validate every symbol up front: a byte above 3 inside a repeat would
	// otherwise match its source through the 2-bit anchor and be copied as
	// that source base.
	for i, s := range src {
		if s > 3 {
			return nil, compress.Stats{}, compress.Corruptf("gencompress: invalid symbol %d at %d", s, i)
		}
	}
	m := match.NewHashMatcher(src, match.WithK(c.cfg.SeedK), match.WithMaxChain(2*c.cfg.MaxCandidates))
	defer m.Release()
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
	// Edit-script buffers for the candidate search: each candidate extends
	// into cur, and a winner swaps its buffer with the one best held, so
	// the search reuses two buffers instead of allocating per candidate.
	var cur, bestOps []match.EditOp

	i := 0
	for i < len(src) {
		m.Advance(i)

		var best match.ApproxMatch
		bestScore := 0
		cands := 0
		m.ForEachForwardAnchor(i, func(j int) bool {
			// The source must be fully processed for an edit-script replay.
			am := match.ExtendApprox(src, j, i, m.K(), c.cfg.Approx, &searchStats, cur)
			if s := c.score(am, i); s > bestScore {
				best, bestScore = am, s
				cur, bestOps = bestOps, am.Ops
			} else {
				cur = am.Ops
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
		enc.EncodeLiteral(&flag, lit, src[i])
		literals++
		i++
	}
	payload := enc.Finish()
	out := make([]byte, 0, hn+len(payload))
	out = append(out, hdr[:hn]...)
	out = append(out, payload...)

	ms := m.Stats()
	searchStats.Probes += ms.Probes
	searchStats.Extends += ms.Extends
	st := compress.Stats{
		// float64(...) rounds each product on its own, so arm64 cannot fuse it
		// into the sum and move WorkNS (make fma-check).
		WorkNS: startupNS + int64(implFactor*(float64(nsPerProbe*float64(searchStats.Probes))+float64(nsPerExtend*float64(searchStats.Extends))+
			float64(nsPerSearch*float64(literals+matches))+float64(nsPerIndexed*float64(len(src)))+
			float64(nsPerLiteral*float64(literals))+float64(nsPerMatch*float64(matches))+
			float64(nsPerOp*float64(opsEmitted))+float64(nsPerCopied*float64(copied)))),
		// The approximate-repeat search keeps per-candidate extension state
		// and scoring buffers alive alongside the chain tables — the "RAM
		// usage of GenCompress is high" observation.
		PeakMem: m.MemoryFootprint() + lit.MemoryFootprint() + 2*len(src) + len(out) +
			5*distM.MemoryFootprint(),
	}
	return out, st, nil
}

// encodeOpKind writes the op kind with two adaptive bits: first "is sub?",
// then (if not) "is ins?".
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

// Decompress implements compress.Codec.
func (c *Codec) Decompress(data []byte) ([]byte, compress.Stats, error) {
	nBases, used := binary.Uvarint(data)
	if used <= 0 {
		return nil, compress.Stats{}, compress.Corruptf("gencompress: bad length header")
	}
	if nBases > 1<<34 {
		return nil, compress.Stats{}, compress.Corruptf("gencompress: implausible length %d", nBases)
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
	for uint64(len(out)) < nBases {
		if sym, ok := dec.DecodeLiteral(&flag, lit); ok {
			out = append(out, sym)
			literals++
			continue
		}
		dist := int(distM.Decode(dec)) + 1
		srcPos := len(out) - dist
		tlen := int(lenM.Decode(dec)) + c.cfg.MinLen
		nOps := int(opCountM.Decode(dec))
		if srcPos < 0 || tlen <= 0 || uint64(len(out))+uint64(tlen) > nBases || nOps < 0 || nOps > tlen+c.cfg.Approx.MaxOps+1 {
			return nil, compress.Stats{}, compress.Corruptf("gencompress: repeat descriptor out of range (src %d len %d ops %d)", srcPos, tlen, nOps)
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
				return nil, compress.Stats{}, compress.Corruptf("gencompress: op offset %d beyond repeat length %d", off, tlen)
			}
			ops = append(ops, op)
		}
		// Replay the edit script against the already-produced output.
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
				return nil, compress.Stats{}, compress.Corruptf("gencompress: edit replay source %d escapes processed region", s)
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
		WorkNS: startupNS + int64(implFactor*(float64(nsPerLiteral*float64(literals))+float64(nsPerMatch*float64(matches))+
			float64(nsPerOp*float64(opsReplayed))+float64(nsPerCopied*float64(copied)))),
		PeakMem: lit.MemoryFootprint() + len(data) + int(nBases) + 5*distM.MemoryFootprint(),
	}
	return out, st, nil
}
