// Package biocompress implements a BioCompress-2 style codec (Grumbach &
// Tahi — the first DNA-specific compressor, paper Table 1 row 1/2): exact
// direct and reverse-complement repeats encoded with *Fibonacci* codes for
// length and position, and order-2 arithmetic coding for the non-repeat
// regions.
//
// The stream has two length-prefixed sections reflecting that split:
//
//	uvarint baseCount
//	uvarint tokenSectionBytes
//	tokens  (bit stream): alternating literal-run / repeat records —
//	        Fibonacci(runLen+1) literals, then (unless the sequence is
//	        exhausted) one repeat descriptor: an orientation bit,
//	        Fibonacci(len-minRepeat+1) and Fibonacci(distance+1)
//	literals (range-coder stream): every literal base through an order-2
//	        context model, in order
//
// Decoding replays the token stream, pulling literal bases from the second
// section, so the two coding styles never interleave in one bit budget.
// Encoding runs rather than per-base flags keeps the literal overhead at
// ~0.001 bits/base instead of a ruinous 1 bit/base. Less one, a repeat's
// length and distance are dnax's fields, and token.CopyExact bounds and
// replays them as it does dnax's.
package biocompress

import (
	"encoding/binary"

	"github.com/srl-nuces/ctxdna/internal/arith"
	"github.com/srl-nuces/ctxdna/internal/bitio"
	"github.com/srl-nuces/ctxdna/internal/compress"
	"github.com/srl-nuces/ctxdna/internal/compress/token"
	"github.com/srl-nuces/ctxdna/internal/fib"
	"github.com/srl-nuces/ctxdna/internal/match"
)

func init() {
	compress.Register("biocompress", func() compress.Codec { return New(Config{}) })
}

// Config tunes the codec; zero values select defaults.
type Config struct {
	MinRepeat int // minimum repeat length (default 24; Fibonacci headers are pricey)
	MaxChain  int
}

// DefaultMinRepeat reflects Fibonacci descriptor overhead: below ~24 bases a
// repeat descriptor (two Fibonacci codes + flags) rarely beats 2-bit coding.
const DefaultMinRepeat = 24

// Codec implements compress.Codec.
type Codec struct {
	cfg Config
}

// New returns a BioCompress-2 style codec.
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
	return &Codec{cfg: cfg}
}

// Name implements compress.Codec.
func (*Codec) Name() string { return "biocompress" }

const (
	nsPerProbe = 8.0
	// startupNS models the fixed per-invocation cost of the measured
	// reference binary (process spawn, table/model allocation and zeroing,
	// I/O setup). Modest fixed table setup.
	startupNS    = 5_000_000
	nsPerExtend  = 2.0
	nsPerLiteral = 50.0
	nsPerMatch   = 150.0
	nsPerCopied  = 2.5
	nsPerSearch  = 55.0
	nsPerIndexed = 15.0
)

// Compress implements compress.Codec.
func (c *Codec) Compress(src []byte) ([]byte, compress.Stats, error) {
	// Validate every symbol up front: a byte above 3 inside a repeat would
	// otherwise match its source through the 2-bit anchor and be copied as
	// that source base.
	for i, s := range src {
		if s > 3 {
			return nil, compress.Stats{}, compress.Corruptf("biocompress: invalid symbol %d at %d", s, i)
		}
	}
	m := match.NewHashMatcher(src, match.WithMaxChain(c.cfg.MaxChain))
	defer m.Release()
	tokens := bitio.NewWriter(len(src) / 16)
	lit := arith.NewSymbolModel(2)
	enc := arith.NewEncoder(nil, len(src)/3+64)

	var literals, matches, copied int64
	run := uint64(0) // pending literal-run length
	for i := 0; i < len(src); {
		// [i, j) are literals: FindBest would find both buckets empty at
		// each of them.
		j := m.NextCandidate(i)
		var mt match.Match
		repeat := false
		if j < len(src) {
			mt, repeat = m.FindBest(j)
			if repeat = repeat && mt.Len >= c.cfg.MinRepeat && c.worthIt(mt, j); !repeat {
				j++ // no repeat worth its descriptor: j is a literal too
			}
		}
		enc.EncodeLiterals(nil, lit, src[i:j])
		literals += int64(j - i)
		run += uint64(j - i)
		i = j
		if !repeat {
			continue
		}
		if err := fib.Encode(tokens, run+1); err != nil {
			return nil, compress.Stats{}, err
		}
		run = 0
		if mt.RC {
			tokens.WriteBit(1)
		} else {
			tokens.WriteBit(0)
		}
		if err := fib.Encode(tokens, uint64(mt.Len-c.cfg.MinRepeat+1)); err != nil {
			return nil, compress.Stats{}, err
		}
		var dist int
		if mt.RC {
			dist = i - (mt.Src + mt.Len)
		} else {
			dist = i - mt.Src - 1
		}
		if err := fib.Encode(tokens, uint64(dist+1)); err != nil {
			return nil, compress.Stats{}, err
		}
		for t := 0; t < mt.Len; t++ {
			lit.Observe(src[i+t])
		}
		matches++
		copied += int64(mt.Len)
		i += mt.Len
	}
	if err := fib.Encode(tokens, run+1); err != nil {
		return nil, compress.Stats{}, err
	}

	tokenBytes := tokens.Bytes()
	litBytes := enc.Finish()
	var hdr [2 * binary.MaxVarintLen64]byte
	hn := binary.PutUvarint(hdr[:], uint64(len(src)))
	hn += binary.PutUvarint(hdr[hn:], uint64(len(tokenBytes)))
	out := make([]byte, 0, hn+len(tokenBytes)+len(litBytes))
	out = append(out, hdr[:hn]...)
	out = append(out, tokenBytes...)
	out = append(out, litBytes...)

	ms := m.Stats()
	st := compress.Stats{
		// float64(...) rounds each product on its own, so arm64 cannot fuse it
		// into the sum and move WorkNS (make fma-check).
		WorkNS: startupNS + int64(float64(nsPerProbe*float64(ms.Probes))+float64(nsPerExtend*float64(ms.Extends))+
			float64(nsPerSearch*float64(literals+matches))+float64(nsPerIndexed*float64(len(src)))+
			float64(nsPerLiteral*float64(literals))+float64(nsPerMatch*float64(matches))+float64(nsPerCopied*float64(copied))),
		PeakMem: m.MemoryFootprint() + lit.MemoryFootprint() + len(src) + len(out),
	}
	return out, st, nil
}

// worthIt estimates whether the Fibonacci descriptor beats 2-bit literals.
func (c *Codec) worthIt(mt match.Match, pos int) bool {
	bits := 2 + fib.Len(uint64(mt.Len-c.cfg.MinRepeat+1)) + fib.Len(uint64(pos-mt.Src+1))
	return bits+4 < 2*mt.Len
}

// Decompress implements compress.Codec.
func (c *Codec) Decompress(data []byte) ([]byte, compress.Stats, error) {
	nBases, used := binary.Uvarint(data)
	if used <= 0 {
		return nil, compress.Stats{}, compress.Corruptf("biocompress: bad length header")
	}
	tokenLen, used2 := binary.Uvarint(data[used:])
	if used2 <= 0 {
		return nil, compress.Stats{}, compress.Corruptf("biocompress: bad token-section header")
	}
	if nBases > token.MaxBases || uint64(used+used2)+tokenLen > uint64(len(data)) {
		return nil, compress.Stats{}, compress.Corruptf("biocompress: sections overrun input")
	}
	tokens := bitio.NewReader(data[used+used2 : uint64(used+used2)+tokenLen])
	lit := arith.NewSymbolModel(2)
	dec := arith.NewDecoder(data[uint64(used+used2)+tokenLen:])

	out := make([]byte, 0, compress.HeaderPrealloc(nBases))
	var literals, matches, copied int64
	for uint64(len(out)) < nBases {
		runPlus1, err := fib.Decode(tokens)
		if err != nil {
			return nil, compress.Stats{}, compress.Corruptf("biocompress: token stream truncated: %v", err)
		}
		run := runPlus1 - 1
		if run > nBases-uint64(len(out)) {
			return nil, compress.Stats{}, compress.Corruptf("biocompress: literal run %d overruns output", run)
		}
		var ok bool
		if out, ok = token.Literals(dec, nil, lit, out, uint64(len(out))+run); !ok {
			return nil, compress.Stats{}, compress.Corruptf("biocompress: literal stream ends before base %d of %d", len(out), nBases)
		}
		literals += int64(run)
		if uint64(len(out)) >= nBases {
			break
		}
		rcBit, err := tokens.ReadBit()
		if err != nil {
			return nil, compress.Stats{}, compress.Corruptf("biocompress: truncated orientation: %v", err)
		}
		lv, err := fib.Decode(tokens)
		if err != nil {
			return nil, compress.Stats{}, compress.Corruptf("biocompress: truncated length: %v", err)
		}
		dv, err := fib.Decode(tokens)
		if err != nil {
			return nil, compress.Stats{}, compress.Corruptf("biocompress: truncated distance: %v", err)
		}
		// Less one, the length and distance fields are dnax's.
		before := len(out)
		if out, ok = token.CopyExact(out, nBases, lit, rcBit == 1, c.cfg.MinRepeat, lv-1, dv-1); !ok {
			return nil, compress.Stats{}, compress.Corruptf("biocompress: repeat (rc %d, length %d, distance %d) out of range at base %d of %d", rcBit, lv, dv, before, nBases)
		}
		matches++
		copied += int64(len(out) - before)
	}
	st := compress.Stats{
		// float64(...) rounds each product on its own, so arm64 cannot fuse it
		// into the sum and move WorkNS (make fma-check).
		WorkNS:  startupNS + int64(float64(nsPerLiteral*float64(literals))+float64(nsPerMatch*float64(matches))+float64(nsPerCopied*float64(copied))),
		PeakMem: lit.MemoryFootprint() + len(data) + int(nBases),
	}
	return out, st, nil
}
