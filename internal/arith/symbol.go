package arith

// SymbolModel is an adaptive order-k model over the 4-letter nucleotide
// alphabet (symbols 0..3 = A,C,G,T). Each context — the previous k symbols —
// owns a tiny binary tree of three adaptive bit models: one for the high bit
// of the next symbol and one per branch for the low bit. Order-2 instances of
// this model are the "order-2 arithmetic coding" literal coder named by
// BioCompress-2, DNAPack and DNAX in the paper's Table 1. Symbols are coded
// through it by Encoder.EncodeLiterals and Decoder.DecodeLiterals.
type SymbolModel struct {
	mask  uint32
	ctx   uint32
	probs []Prob // 3 models per context, laid out contiguously
}

// NewSymbolModel returns a model conditioning on the previous order symbols.
// order must be in [0, 12] to bound table size (4^12 × 3 entries ≈ 100 MB is
// already past any practical setting; typical use is 2).
func NewSymbolModel(order int) *SymbolModel {
	if order < 0 || order > 12 {
		panic("arith: symbol model order out of range [0,12]")
	}
	nCtx := 1 << (2 * order)
	return &SymbolModel{
		mask:  uint32(nCtx - 1),
		probs: NewProbSlice(nCtx * 3),
	}
}

// MemoryFootprint returns the approximate resident size of the model tables
// in bytes, used by the metrics layer for RAM accounting.
func (m *SymbolModel) MemoryFootprint() int { return len(m.probs) * 2 }

// Reset clears the learned statistics and context history.
func (m *SymbolModel) Reset() {
	m.ctx = 0
	for i := range m.probs {
		m.probs[i] = NewProb()
	}
}

// Observe advances the context without coding, used when a stretch of
// symbols was transmitted by other means (e.g. a copied repeat) but should
// still condition subsequent literals.
func (m *SymbolModel) Observe(sym byte) { m.advance(sym) }

// symbolMasks returns the high and the low bit of sym as masks (see
// bitMask), by negation rather than a compare, so neither can compile to a
// branch.
func symbolMasks(sym byte) (hi, lo uint32) {
	return -uint32(sym >> 1 & 1), -uint32(sym & 1)
}

func (m *SymbolModel) advance(sym byte) {
	m.ctx = (m.ctx<<2 | uint32(sym&3)) & m.mask
}
