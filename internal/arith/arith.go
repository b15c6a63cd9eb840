// Package arith implements a binary range coder (carry-aware, LZMA-style)
// together with adaptive bit models and an order-k nucleotide symbol model.
// It is the shared entropy-coding substrate for every statistical codec in
// this repository: CTW drives it with mixed tree probabilities, DNAX and
// BioCompress-2 use the order-2 symbol model for literals, and GenCompress
// uses it for escape regions.
//
// Probabilities are 16-bit: a model supplies P(bit = 0) scaled to [1, 65535].
// The coder guarantees that both branches keep a non-zero sub-range, so any
// probability in that interval is safe.
package arith

// Probability precision: 16 fractional bits.
const (
	probBits = 16
	ProbOne  = 1 << probBits // the fixed-point representation of 1.0
	probInit = ProbOne / 2
	topValue = 1 << 24 // renormalization threshold
)

// Encoder is a binary range encoder. Create one with NewEncoder, feed bits
// through EncodeBit/EncodeBitP, then call Finish exactly once to flush and
// obtain the output buffer, which begins with the leading bytes NewEncoder
// was given.
//
// The coder follows the canonical LZMA construction: the first output byte is
// always a zero "carry sponge" that later additions may increment; the
// decoder primes its 32-bit code register with five input bytes so that the
// sponge byte shifts straight through.
type Encoder struct {
	low      uint64
	rng      uint32
	cache    byte
	pending  int64 // number of buffered bytes awaiting a possible carry
	out      []byte
	finished bool
}

// NewEncoder returns an Encoder whose output begins with a copy of lead,
// in a buffer preallocated to hold sizeHint coded bytes behind it. A codec
// passes its stream header as lead, and Finish returns header and payload
// in one buffer. A carry never reaches back into lead: it only adds to
// bytes the coder still holds.
func NewEncoder(lead []byte, sizeHint int) *Encoder {
	if sizeHint < 16 {
		sizeHint = 16
	}
	out := append(make([]byte, 0, len(lead)+sizeHint), lead...)
	return &Encoder{rng: 0xFFFFFFFF, pending: 1, out: out}
}

func (e *Encoder) shiftLow() {
	if uint32(e.low) < 0xFF000000 || e.low>>32 != 0 {
		carry := byte(e.low >> 32)
		temp := e.cache
		for {
			e.out = append(e.out, temp+carry)
			temp = 0xFF
			e.pending--
			if e.pending == 0 {
				break
			}
		}
		e.cache = byte(e.low >> 24)
	}
	e.pending++
	e.low = (e.low << 8) & 0xFFFFFFFF
}

// bitMask is all ones for a 1 bit (any non-zero bit) and zero for a 0 bit.
// The coder and the bit model select between their two outcomes through it
// instead of branching on the bit: literal bits sit close to coin flips, so
// a branch on them mispredicts about half the time. The compiler lowers the
// conditional assignment to a conditional move.
func bitMask(bit int) uint32 {
	var mask uint32
	if bit != 0 {
		mask = ^uint32(0)
	}
	return mask
}

// EncodeBitP encodes bit with static probability p0 = P(bit == 0) in
// fixed-point [1, ProbOne-1]. Any non-zero bit codes as 1.
func (e *Encoder) EncodeBitP(p0 uint32, bit int) {
	e.rng, e.low = e.norm(encodeStep(e.rng, e.low, p0, bitMask(bit)))
}

// EncodeBit encodes bit using the adaptive model p, then updates the model.
func (e *Encoder) EncodeBit(p *Prob, bit int) {
	mask := bitMask(bit)
	e.rng, e.low = e.norm(encodeStep(e.rng, e.low, uint32(*p), mask))
	p.updateMask(mask)
}

// EncodeLiterals codes a run of literal tokens, the token a repeat codec
// writes at each literal position: for every symbol of syms, a 0 through
// the adaptive flag model, then the symbol through m. The bytes and model
// states are those of EncodeBit(flag, 0) and then the symbol's two bits
// through m, symbol after symbol, in one call that keeps the range, the
// flag model and m's context in locals for the whole run. A nil flag codes
// the symbols alone; flag must not be one of m's models.
func (e *Encoder) EncodeLiterals(flag *Prob, m *SymbolModel, syms []byte) {
	rng, low := e.rng, e.low
	ctx, ctxMask, probs := m.ctx, m.mask, m.probs
	var f Prob
	if flag != nil {
		f = *flag
	}
	for _, sym := range syms {
		if flag != nil {
			rng, low = e.norm(encodeStep(rng, low, uint32(f), 0))
			f.updateMask(0)
		}
		p := probs[ctx*3:][:3]
		hi, lo := symbolMasks(sym)
		rng, low = e.norm(encodeStep(rng, low, uint32(p[0]), hi))
		p[0].updateMask(hi)
		q := &p[1+hi&1]
		rng, low = e.norm(encodeStep(rng, low, uint32(*q), lo))
		q.updateMask(lo)
		ctx = (ctx<<2 | uint32(sym&3)) & ctxMask
	}
	e.rng, e.low = rng, low
	m.ctx = ctx
	if flag != nil {
		*flag = f
	}
}

// encodeStep narrows the range (rng, low) to the bit that mask selects
// under P(0) = p0: a 0 keeps the low sub-range [low, low+bound), a 1 the
// high one [low+bound, low+rng). Every encode is built from it: each bit
// is encodeStep, then norm, then, under an adaptive model, updateMask.
func encodeStep(rng uint32, low uint64, p0, mask uint32) (uint32, uint64) {
	bound := (rng >> probBits) * p0
	return bound ^ ((bound ^ (rng - bound)) & mask), low + uint64(bound&mask)
}

// norm renormalises the range after a coded bit. It inlines, and leaves
// the shifting, which a bit needs about once per byte of output, to renorm
// out of line.
func (e *Encoder) norm(rng uint32, low uint64) (uint32, uint64) {
	if rng < topValue {
		return e.renorm(rng, low)
	}
	return rng, low
}

func (e *Encoder) renorm(rng uint32, low uint64) (uint32, uint64) {
	e.low = low
	for rng < topValue {
		rng <<= 8
		e.shiftLow()
	}
	return rng, e.low
}

// Finish flushes the coder state and returns the complete output, leading
// bytes first. The Encoder must not be used afterwards.
func (e *Encoder) Finish() []byte {
	if !e.finished {
		for i := 0; i < 5; i++ {
			e.shiftLow()
		}
		e.finished = true
	}
	return e.out
}

// Len reports the number of output bytes produced so far, the leading
// bytes included (excluding the up-to-5 bytes that Finish will flush).
func (e *Encoder) Len() int { return len(e.out) }

// Decoder is the matching binary range decoder.
type Decoder struct {
	rng  uint32
	code uint32
	in   []byte
	pos  int
}

// NewDecoder returns a Decoder positioned at the start of data, which must
// have been produced by Encoder.Finish.
func NewDecoder(data []byte) *Decoder {
	d := &Decoder{rng: 0xFFFFFFFF, in: data}
	// Five bytes: the encoder's leading carry-sponge byte shifts out of the
	// 32-bit code register.
	for i := 0; i < 5; i++ {
		d.code = d.code<<8 | uint32(d.next())
	}
	return d
}

func (d *Decoder) next() byte {
	if d.pos < len(d.in) {
		b := d.in[d.pos]
		d.pos++
		return b
	}
	// Reading past the end yields zero bytes, and Overrun reports it: the
	// decoder knows the symbol count only from framing above this layer.
	d.pos++
	return 0
}

// Overrun reports whether the decoder has read past the end of its input.
// A well-formed stream never makes it: Finish flushes the five bytes the
// decoder primes with, so decoding the symbols coded reads the stream to
// its last byte and no further. A decoder that has read past it is
// decoding a truncated stream, whose zero fill would go on yielding
// symbols for as long as a header claims.
func (d *Decoder) Overrun() bool { return d.pos > len(d.in) }

// OverrunStride is the most symbols a decoder of a stream that claims its
// length produces between two Overrun checks: what a truncated stream
// costs before it is stopped.
const OverrunStride = 1 << 16

// DecodeBitP decodes one bit with static probability p0 = P(bit == 0).
func (d *Decoder) DecodeBitP(p0 uint32) int {
	rng, code, mask := decodeStep(d.rng, d.code, p0)
	d.rng, d.code = d.norm(rng, code)
	return int(mask & 1)
}

// DecodeBit decodes one bit using the adaptive model p, then updates p.
func (d *Decoder) DecodeBit(p *Prob) int {
	rng, code, mask := decodeStep(d.rng, d.code, uint32(*p))
	d.rng, d.code = d.norm(rng, code)
	p.updateMask(mask)
	return int(mask & 1)
}

// DecodeLiterals decodes a run of the tokens EncodeLiterals writes,
// appending each literal's symbol to out, until out holds n symbols or it
// decodes a flag bit of 1. The caller tells the two apart by len(out): a
// run that stops short of n stopped on a repeat flag, whose fields it
// leaves to the caller. n is compared with len(out) as uint64, so a base
// count read from a stream needs no conversion. Bits, model states and
// bytes read are those of DecodeBit(flag) and, on a 0, the symbol's two
// bits through m, token after token; like EncodeLiterals it keeps the
// range, the flag model and m's context in locals. A nil flag decodes
// symbols alone until out holds n.
func (d *Decoder) DecodeLiterals(flag *Prob, m *SymbolModel, out []byte, n uint64) []byte {
	rng, code := d.rng, d.code
	ctx, ctxMask, probs := m.ctx, m.mask, m.probs
	var f Prob
	if flag != nil {
		f = *flag
	}
	for uint64(len(out)) < n {
		if flag != nil {
			var isRepeat uint32
			rng, code, isRepeat = decodeStep(rng, code, uint32(f))
			rng, code = d.norm(rng, code)
			f.updateMask(isRepeat)
			if isRepeat != 0 {
				break
			}
		}
		p := probs[ctx*3:][:3]
		var hi, lo uint32
		rng, code, hi = decodeStep(rng, code, uint32(p[0]))
		rng, code = d.norm(rng, code)
		p[0].updateMask(hi)
		q := &p[1+hi&1]
		rng, code, lo = decodeStep(rng, code, uint32(*q))
		rng, code = d.norm(rng, code)
		q.updateMask(lo)
		sym := byte(hi&2 | lo&1)
		ctx = (ctx<<2 | uint32(sym)) & ctxMask
		out = append(out, sym)
	}
	d.rng, d.code = rng, code
	m.ctx = ctx
	if flag != nil {
		*flag = f
	}
	return out
}

// decodeStep decodes one bit under P(0) = p0 and returns it as a mask (see
// bitMask), with the range (rng, code) narrowed to its sub-range: a code at
// or above bound lies in the high sub-range, which is a 1. Every decode is
// built from it as every encode is from encodeStep. The mask is the borrow
// of code-bound, taken in 64 bits, minus one: arithmetic, so that no
// inlining of the step can turn it into a branch on the decoded bit.
func decodeStep(rng, code, p0 uint32) (uint32, uint32, uint32) {
	bound := (rng >> probBits) * p0
	mask := uint32((uint64(code)-uint64(bound))>>63) - 1
	return bound ^ ((bound ^ (rng - bound)) & mask), code - bound&mask, mask
}

// norm renormalises the range after a decoded bit; see Encoder.norm.
func (d *Decoder) norm(rng, code uint32) (uint32, uint32) {
	if rng < topValue {
		return d.renorm(rng, code)
	}
	return rng, code
}

// renorm is out of line for the reason Encoder.norm gives; it is small
// enough that the compiler would otherwise inline it.
//
//go:noinline
func (d *Decoder) renorm(rng, code uint32) (uint32, uint32) {
	for rng < topValue {
		code = code<<8 | uint32(d.next())
		rng <<= 8
	}
	return rng, code
}

// Prob is an adaptive binary model: the fixed-point probability that the
// next bit is zero. The zero value is NOT valid; use NewProb.
type Prob uint16

// adaptShift controls adaptation speed: smaller shifts adapt faster.
const adaptShift = 5

// NewProb returns a model initialized to P(0) = 1/2.
func NewProb() Prob { return Prob(probInit) }

// Update moves the model toward the observed bit. Any non-zero bit counts
// as 1.
func (p *Prob) Update(bit int) { p.updateMask(bitMask(bit)) }

// updateMask moves the model toward the bit that mask selects (see
// bitMask): a 0 adds (ProbOne-v)>>adaptShift, a 1 subtracts v>>adaptShift.
// From any uint16 state a 0 stays below ProbOne and a 1 reaches 0 only
// from the zero value, so the one clamp the range needs is that 0 becomes
// 1, which (v-1)>>31 does without a branch.
func (p *Prob) updateMask(mask uint32) {
	v := uint32(*p)
	v += (ProbOne-v)>>adaptShift&^mask - v>>adaptShift&mask
	v += (v - 1) >> 31 // lift 0 to 1
	*p = Prob(v)
}

// NewProbSlice returns n freshly initialized models.
func NewProbSlice(n int) []Prob {
	ps := make([]Prob, n)
	for i := range ps {
		ps[i] = Prob(probInit)
	}
	return ps
}
