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
// obtain the output buffer.
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

// NewEncoder returns an Encoder whose output buffer is preallocated to
// sizeHint bytes.
func NewEncoder(sizeHint int) *Encoder {
	if sizeHint < 16 {
		sizeHint = 16
	}
	return &Encoder{rng: 0xFFFFFFFF, pending: 1, out: make([]byte, 0, sizeHint)}
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
	e.encodeMask(p0, bitMask(bit))
}

// encodeMask codes the bit that mask selects: a 0 keeps the low sub-range
// [low, low+bound), a 1 the high one [low+bound, low+rng).
func (e *Encoder) encodeMask(p0, mask uint32) {
	bound := (e.rng >> probBits) * p0
	e.low += uint64(bound & mask)
	e.rng = bound ^ ((bound ^ (e.rng - bound)) & mask)
	for e.rng < topValue {
		e.rng <<= 8
		e.shiftLow()
	}
}

// EncodeBit encodes bit using the adaptive model p, then updates the model.
func (e *Encoder) EncodeBit(p *Prob, bit int) {
	mask := bitMask(bit)
	e.encodeMask(uint32(*p), mask)
	p.updateMask(mask)
}

// Finish flushes the coder state and returns the complete output. The
// Encoder must not be used afterwards.
func (e *Encoder) Finish() []byte {
	if !e.finished {
		for i := 0; i < 5; i++ {
			e.shiftLow()
		}
		e.finished = true
	}
	return e.out
}

// Len reports the number of output bytes produced so far (excluding the
// up-to-5 bytes that Finish will flush).
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
	// Reading past the end yields zero bytes; a well-formed stream never
	// depends on more than a few of them (the decoder knows the symbol
	// count from framing above this layer).
	d.pos++
	return 0
}

// DecodeBitP decodes one bit with static probability p0 = P(bit == 0).
func (d *Decoder) DecodeBitP(p0 uint32) int {
	return int(d.decodeMask(p0) & 1)
}

// decodeMask decodes one bit and returns it as a mask (see bitMask): a code
// at or above bound lies in the high sub-range, which is a 1.
func (d *Decoder) decodeMask(p0 uint32) uint32 {
	bound := (d.rng >> probBits) * p0
	var mask uint32
	if d.code >= bound {
		mask = ^uint32(0)
	}
	d.code -= bound & mask
	d.rng = bound ^ ((bound ^ (d.rng - bound)) & mask)
	for d.rng < topValue {
		d.code = d.code<<8 | uint32(d.next())
		d.rng <<= 8
	}
	return mask
}

// DecodeBit decodes one bit using the adaptive model p, then updates p.
func (d *Decoder) DecodeBit(p *Prob) int {
	mask := d.decodeMask(uint32(*p))
	p.updateMask(mask)
	return int(mask & 1)
}

// BytesRead reports how many input bytes have been consumed (may exceed
// len(input) by a small amount at end of stream due to zero-fill).
func (d *Decoder) BytesRead() int { return d.pos }

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
func (p *Prob) updateMask(mask uint32) {
	v := uint32(*p)
	v += (ProbOne-v)>>adaptShift&^mask - v>>adaptShift&mask
	if v == 0 {
		v = 1
	}
	if v >= ProbOne {
		v = ProbOne - 1
	}
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
