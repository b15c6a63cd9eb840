// Package xm implements an expert-model DNA compressor in the style of XM
// (Cao, Dix, Allison & Mears, DCC 2007) — the strongest member of the
// paper's "statistics based" horizontal category (Table 1 row "XM:
// Statistics"). A panel of experts each propose a distribution over the
// next base:
//
//   - Markov experts of several orders (context-counted, KT-smoothed);
//   - a copy expert that tracks an offset into the already-coded sequence
//     and bets the next base repeats what it saw there, re-anchoring itself
//     through an incremental k-mer index whenever it starts missing.
//
// The experts' opinions are blended by multiplicative-weights averaging
// (the practical form of XM's Bayesian averaging): each expert's weight is
// multiplied by the probability it assigned to the symbol that actually
// occurred, decayed toward uniform so the panel re-adapts quickly when the
// sequence changes character. The blended distribution drives the range
// coder through a two-bit conditional decomposition.
//
// Because the copy expert re-anchors using only the processed prefix, the
// decoder reconstructs the identical expert state from its own output —
// no side information is transmitted.
package xm

import (
	"encoding/binary"
	"math"
	"slices"

	"github.com/srl-nuces/ctxdna/internal/arith"
	"github.com/srl-nuces/ctxdna/internal/compress"
)

func init() {
	compress.Register("xm", func() compress.Codec { return New(Config{}) })
}

// Config tunes the expert panel. Zero values select defaults.
type Config struct {
	// Orders lists the Markov expert orders (default 1, 2, 4, 8).
	Orders []int
	// Decay is the per-symbol pull of expert weights toward uniform
	// (default 0.02); higher re-adapts faster but blurs strong experts.
	Decay float64
	// CopyHit is the probability mass the copy expert puts on its
	// prediction (default 0.90).
	CopyHit float64
	// AnchorK is the k-mer length used to (re-)anchor the copy expert
	// (default 12).
	AnchorK int
}

func (cfg Config) withDefaults() Config {
	if len(cfg.Orders) == 0 {
		cfg.Orders = []int{1, 2, 4, 8}
	}
	if cfg.Decay == 0 {
		cfg.Decay = 0.02
	}
	if cfg.CopyHit == 0 {
		cfg.CopyHit = 0.90
	}
	if cfg.AnchorK == 0 {
		cfg.AnchorK = 12
	}
	return cfg
}

// Codec implements compress.Codec.
type Codec struct {
	cfg Config
}

// New returns an XM codec.
func New(cfg Config) *Codec {
	cfg = cfg.withDefaults()
	for _, o := range cfg.Orders {
		if o < 0 || o > 10 {
			panic("xm: Markov order outside [0,10]")
		}
	}
	if cfg.AnchorK < 4 || cfg.AnchorK > 15 {
		panic("xm: AnchorK outside [4,15]")
	}
	return &Codec{cfg: cfg}
}

// Name implements compress.Codec.
func (*Codec) Name() string { return "xm" }

// markovExpert counts symbol occurrences per context.
type markovExpert struct {
	order  int
	mask   uint32
	ctx    uint32
	counts []uint16 // 4 per context
}

func newMarkovExpert(order int) *markovExpert {
	n := 1 << (2 * order)
	return &markovExpert{order: order, mask: uint32(n - 1), counts: make([]uint16, 4*n)}
}

func (m *markovExpert) predict(dist *[4]float64) {
	base := m.ctx * 4
	c := m.counts[base : base+4 : base+4]
	total := float64(c[0]) + float64(c[1]) + float64(c[2]) + float64(c[3])
	for s := 0; s < 4; s++ {
		dist[s] = (float64(c[s]) + 0.25) / (total + 1)
	}
}

func (m *markovExpert) update(sym byte) {
	base := m.ctx * 4
	m.counts[base+uint32(sym)]++
	if m.counts[base+uint32(sym)] >= 60000 {
		for s := uint32(0); s < 4; s++ {
			m.counts[base+s] /= 2
		}
	}
	m.ctx = (m.ctx<<2 | uint32(sym)) & m.mask
}

func (m *markovExpert) memory() int { return len(m.counts) * 2 }

// copyExpert predicts history[pos-offset]; it re-anchors via the k-mer
// index when its recent hit-rate EMA drops.
type copyExpert struct {
	k       int
	hit     float64 // probability mass on the predicted base
	offset  int     // 0 = inactive
	ema     float64 // exponential moving hit rate
	index   map[uint32]int32
	kmer    uint32
	kmerLen int
	mask    uint32
}

func newCopyExpert(k int, hit float64) *copyExpert {
	return &copyExpert{
		k:     k,
		hit:   hit,
		index: make(map[uint32]int32, 1<<14),
		mask:  uint32(1<<(2*k)) - 1,
		ema:   1,
	}
}

func (c *copyExpert) predict(history []byte, dist *[4]float64) {
	if c.offset <= 0 || c.offset > len(history) {
		for s := 0; s < 4; s++ {
			dist[s] = 0.25
		}
		return
	}
	pred := history[len(history)-c.offset]
	miss := (1 - c.hit) / 3
	for s := 0; s < 4; s++ {
		dist[s] = miss
	}
	dist[pred] = c.hit
}

// update observes the actual symbol, maintains the k-mer index over the
// history (which now ends with sym), and re-anchors when cold.
func (c *copyExpert) update(history []byte, sym byte) {
	// history already includes sym at its end, so the base the expert
	// predicted for this position sits one further back than in predict.
	if c.offset > 0 && c.offset < len(history) {
		if history[len(history)-1-c.offset] == sym {
			// float64(...) here and in mix/observe keeps each product
			// rounded on its own: fused into the add (arm64 does), it would
			// change the stream's probabilities between architectures.
			c.ema = float64(0.95*c.ema) + 0.05
		} else {
			c.ema = 0.95 * c.ema
		}
	}
	// history already includes sym at its end (caller appends first).
	c.kmer = (c.kmer<<2 | uint32(sym)) & c.mask
	if c.kmerLen < c.k {
		c.kmerLen++
	}
	pos := len(history) // one past the k-mer's end
	if c.kmerLen == c.k {
		if c.offset == 0 || c.ema < 0.5 {
			if prev, ok := c.index[c.kmer]; ok {
				c.offset = pos - int(prev)
				c.ema = 1
			}
		}
		c.index[c.kmer] = int32(pos)
	}
}

func (c *copyExpert) memory() int { return len(c.index) * 8 }

// panel is the full expert ensemble with multiplicative weights.
type panel struct {
	cfg     Config
	markovs []*markovExpert
	copier  *copyExpert
	weights []float64
	scratch [][4]float64
	history []byte
}

func newPanel(cfg Config, sizeHint int) *panel {
	p := &panel{cfg: cfg, history: make([]byte, 0, sizeHint)}
	for _, o := range cfg.Orders {
		p.markovs = append(p.markovs, newMarkovExpert(o))
	}
	p.copier = newCopyExpert(cfg.AnchorK, cfg.CopyHit)
	n := len(p.markovs) + 1
	p.weights = make([]float64, n)
	for i := range p.weights {
		p.weights[i] = 1 / float64(n)
	}
	p.scratch = make([][4]float64, n)
	return p
}

// mix returns the blended distribution over the next symbol.
func (p *panel) mix(dist *[4]float64) {
	for i, m := range p.markovs {
		m.predict(&p.scratch[i])
	}
	p.copier.predict(p.history, &p.scratch[len(p.markovs)])
	for s := 0; s < 4; s++ {
		dist[s] = 0
	}
	for i, w := range p.weights {
		for s := 0; s < 4; s++ {
			dist[s] += float64(w * p.scratch[i][s])
		}
	}
}

// observe updates weights and experts with the actual symbol. mix must have
// been called for this position (scratch holds each expert's prediction).
func (p *panel) observe(sym byte) {
	total := 0.0
	for i := range p.weights {
		p.weights[i] *= p.scratch[i][sym]
		total += p.weights[i]
	}
	n := float64(len(p.weights))
	for i := range p.weights {
		p.weights[i] = float64((1-p.cfg.Decay)*(p.weights[i]/total)) + p.cfg.Decay/n
	}
	p.history = append(p.history, sym)
	for _, m := range p.markovs {
		m.update(sym)
	}
	p.copier.update(p.history, sym)
}

func (p *panel) memory() int {
	total := p.copier.memory() + cap(p.history)
	for _, m := range p.markovs {
		total += m.memory()
	}
	return total
}

// clamp keeps a probability inside the coder's representable range.
func clamp(v float64) float64 {
	const eps = 1.0 / (1 << 12)
	return math.Min(math.Max(v, eps), 1-eps)
}

// Cost model: per symbol the panel runs |experts| predictions and updates
// plus a map touch; ~190 ns/symbol measured for the default panel, plus a
// research-binary startup comparable to CTW's.
const (
	nsPerSymbolPerExpert = 38.0
	startupNS            = 25_000_000
)

func (c *Codec) work(n int) int64 {
	return startupNS + int64(nsPerSymbolPerExpert*float64(n)*float64(len(c.cfg.Orders)+1))
}

// Compress implements compress.Codec.
func (c *Codec) Compress(src []byte) ([]byte, compress.Stats, error) {
	var hdr [binary.MaxVarintLen64]byte
	hn := binary.PutUvarint(hdr[:], uint64(len(src)))
	p := newPanel(c.cfg, len(src))
	enc := arith.NewEncoder(hdr[:hn], len(src)/3+64)
	var dist [4]float64
	for _, sym := range src {
		if sym > 3 {
			return nil, compress.Stats{}, compress.Corruptf("xm: invalid symbol %d", sym)
		}
		p.mix(&dist)
		encodeSym(enc, &dist, sym)
		p.observe(sym)
	}
	out := enc.Finish()
	st := compress.Stats{
		WorkNS:  c.work(len(src)),
		PeakMem: p.memory() + len(out),
	}
	return out, st, nil
}

// encodeSym codes the symbol under dist via hi/lo conditional bits.
func encodeSym(enc *arith.Encoder, dist *[4]float64, sym byte) {
	pHi0 := clamp(dist[0] + dist[1]) // P(high bit == 0), symbols {A,C}
	hi := int(sym >> 1)
	enc.EncodeBitP(uint32(pHi0*arith.ProbOne), hi)
	var pLo0 float64
	if hi == 0 {
		pLo0 = dist[0] / math.Max(dist[0]+dist[1], 1e-12)
	} else {
		pLo0 = dist[2] / math.Max(dist[2]+dist[3], 1e-12)
	}
	enc.EncodeBitP(uint32(clamp(pLo0)*arith.ProbOne), int(sym&1))
}

func decodeSym(dec *arith.Decoder, dist *[4]float64) byte {
	pHi0 := clamp(dist[0] + dist[1])
	hi := dec.DecodeBitP(uint32(pHi0 * arith.ProbOne))
	var pLo0 float64
	if hi == 0 {
		pLo0 = dist[0] / math.Max(dist[0]+dist[1], 1e-12)
	} else {
		pLo0 = dist[2] / math.Max(dist[2]+dist[3], 1e-12)
	}
	lo := dec.DecodeBitP(uint32(clamp(pLo0) * arith.ProbOne))
	return byte(hi<<1 | lo)
}

// Decompress implements compress.Codec.
func (c *Codec) Decompress(data []byte) ([]byte, compress.Stats, error) {
	return c.DecompressTo(nil, data)
}

// DecompressTo implements compress.Codec.
func (c *Codec) DecompressTo(dst, data []byte) ([]byte, compress.Stats, error) {
	nBases, used := binary.Uvarint(data)
	if used <= 0 {
		return nil, compress.Stats{}, compress.Corruptf("xm: bad length header")
	}
	if nBases > 1<<34 {
		return nil, compress.Stats{}, compress.Corruptf("xm: implausible length %d", nBases)
	}
	// The history buffer's size hint comes from the header claim — clamp
	// it; the panel grows with symbols actually decoded.
	p := newPanel(c.cfg, compress.HeaderPrealloc(nBases))
	dec := arith.NewDecoder(data[used:])
	out := slices.Grow(dst[:0], compress.HeaderPrealloc(nBases))
	var dist [4]float64
	for uint64(len(out)) < nBases {
		p.mix(&dist)
		sym := decodeSym(dec, &dist)
		p.observe(sym)
		out = append(out, sym)
		// A truncated stream reads as zeros past its end: checked once a
		// stride, it stops within one stride of it.
		if len(out)%arith.OverrunStride == 0 && dec.Overrun() {
			return nil, compress.Stats{}, compress.Corruptf("xm: stream ends before base %d of %d", len(out), nBases)
		}
	}
	// The last check: a stream that ran out within the last stride.
	if dec.Overrun() {
		return nil, compress.Stats{}, compress.Corruptf("xm: stream ends before its %d bases", nBases)
	}
	st := compress.Stats{
		WorkNS:  c.work(len(out)),
		PeakMem: p.memory() + len(data),
	}
	return out, st, nil
}
