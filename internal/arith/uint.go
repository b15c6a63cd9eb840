package arith

import "math/bits"

// UintModel codes unsigned integers inside an arithmetic stream as an
// adaptive Elias-gamma analogue: the value's bit-length is sent in unary
// through per-position adaptive models (so frequent magnitudes become cheap)
// and the payload bits below the leading one follow through per-position
// models. Repeat-based codecs use one UintModel per field (length, distance,
// edit-op offset, ...), letting each field's distribution be learned
// independently.
type UintModel struct {
	lenProbs [65]Prob // unary "continue" flags for the bit-length
	bitProbs [64]Prob // payload bit models, indexed by bit position
}

// NewUintModel returns a fresh model.
func NewUintModel() *UintModel {
	m := &UintModel{}
	for i := range m.lenProbs {
		m.lenProbs[i] = NewProb()
	}
	for i := range m.bitProbs {
		m.bitProbs[i] = NewProb()
	}
	return m
}

// MemoryFootprint reports the model's resident size in bytes.
func (m *UintModel) MemoryFootprint() int { return (len(m.lenProbs) + len(m.bitProbs)) * 2 }

// Encode writes v (any uint64, including 0) to e.
//
// The length field is the number of significant bits of v+1 minus one,
// shifting the domain so that zero is representable.
func (m *UintModel) Encode(e *Encoder, v uint64) {
	if v == ^uint64(0) {
		panic("arith: UintModel cannot encode MaxUint64")
	}
	x := v + 1 // x >= 1; bit length in [1,64]
	n := bits.Len64(x)
	for i := 0; i < n-1; i++ {
		e.EncodeBit(&m.lenProbs[i], 1)
	}
	e.EncodeBit(&m.lenProbs[n-1], 0)
	for i := n - 2; i >= 0; i-- {
		e.EncodeBit(&m.bitProbs[i], int(x>>uint(i)&1))
	}
}

// Decode reads one value written by Encode.
func (m *UintModel) Decode(d *Decoder) uint64 {
	n := 1
	for n <= 64 && d.DecodeBit(&m.lenProbs[n-1]) == 1 {
		n++
	}
	x := uint64(1)
	for i := n - 2; i >= 0; i-- {
		x = x<<1 | uint64(d.DecodeBit(&m.bitProbs[i]))
	}
	return x - 1
}
