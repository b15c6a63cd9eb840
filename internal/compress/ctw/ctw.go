// Package ctw implements the Context-Tree Weighting compressor (Willems,
// Shtarkov & Tjalkens 1995), the strongest general-purpose statistical coder
// in the paper's comparison. The sequence is serialized as a bit stream
// (2 bits per base, high bit first) and each bit is coded with the CTW
// mixture over all tree sources up to depth D, using Krichevsky–Trofimov
// estimators at every node and a binary range coder as the entropy stage.
//
// The implementation follows the classic sequential formulation: along the
// current context path each node n keeps KT counts (a, b) and a ratio
// β(n) = Pe(n)/Pw(children), from which the conditional mixture probability
// is computed leaf-to-root in O(D) per bit:
//
//	Pw(0 | path, n) = (β(n)·Pkt(0|n) + Pw(0|child)) / (β(n) + 1)
//
// CTW's profile in the paper's data — strong ratio, heavy memory, slow and
// perfectly symmetric compress/decompress times (its decompression is the
// worst of the four) — all falls out of this structure: decoding must run
// the identical mixture computation per bit.
package ctw

import (
	"encoding/binary"
	"sync"

	"github.com/srl-nuces/ctxdna/internal/arith"
	"github.com/srl-nuces/ctxdna/internal/compress"
)

func init() {
	compress.Register("ctw", func() compress.Codec { return New(DefaultDepth) })
}

// DefaultDepth is the context depth in bits (16 bits = 8 bases), the
// standard setting for DNA in the CTW literature.
const DefaultDepth = 16

// Codec is a CTW compressor with a fixed context depth.
type Codec struct {
	depth int
}

// New returns a CTW codec with the given context depth in bits (1..30).
func New(depth int) *Codec {
	if depth < 1 || depth > maxDepth {
		panic("ctw: depth outside [1,30]")
	}
	return &Codec{depth: depth}
}

// Name implements compress.Codec.
func (*Codec) Name() string { return "ctw" }

// Depth reports the context depth in bits.
func (c *Codec) Depth() int { return c.depth }

// node is one context-tree node. Counts saturate by halving, which doubles
// as adaptivity to non-stationary sources.
type node struct {
	a, b     uint32 // KT counts of zeros and ones
	beta     float64
	children [2]int32 // -1 when absent
}

const nodeBytes = 8 + 8 + 8 // approximate in-memory size used for RAM accounting

// maxDepth is the deepest context New accepts and Decompress decodes.
const maxDepth = 30

// tree is a growable arena of nodes rooted at index 0.
type tree struct {
	nodes []node
	depth int
	// Scratch for the current context path, indexed by depth: the nodes
	// descend visited, and the KT estimate and mixture predict computed at
	// each, which update reuses. Nodes at depths >= fresh were created by
	// the last descend.
	path  [maxDepth + 1]int32
	pkt   [maxDepth + 1]float64
	pw    [maxDepth + 1]float64
	fresh int
}

// maxPooledNodes bounds the arenas treePool keeps: enough for a full
// DefaultDepth context space, so a frame that claims a deep context cannot
// leave a large arena behind.
const maxPooledNodes = 1 << (DefaultDepth + 1)

// treePool recycles tree arenas across calls. The serving path builds a
// fresh codec per request, so the arenas cannot live on a Codec.
var treePool = sync.Pool{New: func() any { return new(tree) }}

func newTree(depth, bitCount int) *tree {
	t := treePool.Get().(*tree)
	t.depth = depth
	// The arena can never exceed the context space (2^(depth+1)-1 nodes) and
	// rarely exceeds a few nodes per coded bit.
	hint := 4*bitCount + 16
	if maxNodes := 1 << (depth + 1); hint > maxNodes {
		hint = maxNodes
	}
	// Truncating to the root is a full reset: newNode appends every later
	// node in full.
	if cap(t.nodes) < hint {
		t.nodes = make([]node, 1, hint)
	}
	t.nodes = t.nodes[:1]
	t.nodes[0] = node{beta: 1, children: [2]int32{-1, -1}}
	return t
}

// release returns t to treePool; t must not be used afterwards.
func (t *tree) release() {
	if cap(t.nodes) <= maxPooledNodes {
		treePool.Put(t)
	}
}

func (t *tree) newNode() int32 {
	t.nodes = append(t.nodes, node{beta: 1, children: [2]int32{-1, -1}})
	return int32(len(t.nodes) - 1)
}

// descend walks from the root along the context (most recent bit first),
// creating nodes as needed, and records the path and where its fresh
// suffix begins.
func (t *tree) descend(ctx uint32) {
	cur := int32(0)
	t.path[0] = 0
	t.fresh = t.depth + 1
	for d := 1; d <= t.depth; d++ {
		bit := ctx >> (d - 1) & 1
		next := t.nodes[cur].children[bit]
		if next < 0 {
			next = t.newNode()
			t.nodes[cur].children[bit] = next
			if t.fresh > d {
				t.fresh = d
			}
		}
		t.path[d] = next
		cur = next
	}
}

// ktP0 returns the KT-estimated probability of a zero at node n.
func ktP0(n *node) float64 {
	return (float64(n.a) + 0.5) / (float64(n.a) + float64(n.b) + 1)
}

const (
	betaMax = 1e30
	betaMin = 1e-30
)

// predict computes the mixture probability of a zero for the current path
// (descend must have been called). It walks leaf-to-root, recording each
// node's KT estimate and mixture for update.
//
// A fresh node has zero counts and β = 1, so its KT estimate is exactly 1/2
// and so is its mixture over a fresh child; the walk starts above the fresh
// suffix with that value.
func (t *tree) predict() float64 {
	p0 := 0.5
	d := t.fresh - 1
	if d == t.depth {
		// Leaf: pure KT.
		p0 = ktP0(&t.nodes[t.path[d]])
		t.pkt[d] = p0
		d--
	}
	for ; d >= 0; d-- {
		n := &t.nodes[t.path[d]]
		pkt := ktP0(n)
		// float64() keeps the product rounded on its own: fused into the
		// add, it would round differently on arm64 and break the stream.
		p0 = (float64(n.beta*pkt) + p0) / (n.beta + 1)
		t.pkt[d] = pkt
		t.pw[d] = p0
	}
	return p0
}

// update records the coded bit along the current path, maintaining counts
// and β ratios bottom-up. predict must have run for this path: update
// reuses its KT estimates, and for a zero its mixtures, which are exactly
// the Pw(child) values β needs. On the fresh suffix every mixture is 1/2
// and β stays exactly 1, so only the counts change there.
func (t *tree) update(bit int) {
	for d := t.fresh; d <= t.depth; d++ {
		bump(&t.nodes[t.path[d]], bit)
	}
	pChild := 0.5
	d := t.fresh - 1
	if d == t.depth {
		pChild = t.pkt[d]
		if bit == 1 {
			pChild = 1 - pChild
		}
		bump(&t.nodes[t.path[d]], bit)
		d--
	}
	for ; d >= 0; d-- {
		n := &t.nodes[t.path[d]]
		pkt, pw := t.pkt[d], t.pw[d]
		if bit == 1 {
			// Mixture this node produced for the coded bit, before updating.
			pkt = 1 - pkt
			pw = (float64(n.beta*pkt) + pChild) / (n.beta + 1)
		}
		// β ← β · Pe(bit)/Pw(child = bit)
		n.beta *= pkt / pChild
		if n.beta > betaMax {
			n.beta = betaMax
		} else if n.beta < betaMin {
			n.beta = betaMin
		}
		bump(n, bit)
		pChild = pw
	}
}

func bump(n *node, bit int) {
	if bit == 0 {
		n.a++
	} else {
		n.b++
	}
	if n.a+n.b >= 65536 {
		n.a /= 2
		n.b /= 2
	}
}

// memory reports the arena's approximate resident size.
func (t *tree) memory() int { return len(t.nodes) * nodeBytes }

// probTo16 converts a float probability of zero into the range coder's
// 16-bit fixed point, clamped away from the degenerate ends.
func probTo16(p0 float64) uint32 {
	v := uint32(p0 * arith.ProbOne)
	if v < 32 {
		v = 32
	}
	if v > arith.ProbOne-32 {
		v = arith.ProbOne - 32
	}
	return v
}

// Cost model: one bit touches depth+1 nodes twice (predict + update) with a
// handful of float ops each; ~24 ns per node-visit pair on the reference
// core (~824 ns/base at depth 16). The weight was first fitted to
// BenchmarkCompress in this package, but it models the paper's reference
// CTW binary and stays fixed as this code gets faster: the selector trains
// on WorkNS, so measured time may drop while modeled time does not (see
// the cost-model item in ROADMAP.md). Decompression performs the identical
// computation — the structural reason CTW posts the worst decompression
// times in the paper.
const nsPerNodeVisit = 24.0

// startupNS models the fixed per-invocation cost of the measured CTW
// research binary: process spawn plus allocation and initialization of the
// full context-tree arena, which the reference implementation sizes for its
// maximum depth regardless of input length.
const startupNS = 22_000_000

func (c *Codec) work(bits int) int64 {
	return startupNS + int64(nsPerNodeVisit*float64(bits)*float64(c.depth+1))
}

// Compress implements compress.Codec.
func (c *Codec) Compress(src []byte) ([]byte, compress.Stats, error) {
	var hdr [binary.MaxVarintLen64 + 1]byte
	hdr[0] = byte(c.depth)
	n := 1 + binary.PutUvarint(hdr[1:], uint64(len(src)))

	// One tree per bit position within a symbol: the high and low bits of a
	// base follow different conditional laws, and a shared tree would
	// conflate them (a measurable ~0.05 bits/base loss on Markov DNA).
	trees := [2]*tree{newTree(c.depth, len(src)), newTree(c.depth, len(src))}
	defer trees[0].release()
	defer trees[1].release()
	enc := arith.NewEncoder(len(src)/3 + 64)
	var ctx uint32
	ctxMask := uint32(1<<c.depth) - 1
	for _, sym := range src {
		if sym > 3 {
			return nil, compress.Stats{}, compress.Corruptf("ctw: invalid symbol %d", sym)
		}
		for shift := 1; shift >= 0; shift-- {
			bit := int(sym >> shift & 1)
			t := trees[1-shift]
			t.descend(ctx)
			p0 := t.predict()
			enc.EncodeBitP(probTo16(p0), bit)
			t.update(bit)
			ctx = (ctx<<1 | uint32(bit)) & ctxMask
		}
	}
	payload := enc.Finish()
	out := make([]byte, 0, n+len(payload))
	out = append(out, hdr[:n]...)
	out = append(out, payload...)
	st := compress.Stats{
		WorkNS:  c.work(2 * len(src)),
		PeakMem: trees[0].memory() + trees[1].memory() + len(out),
	}
	return out, st, nil
}

// Decompress implements compress.Codec.
func (c *Codec) Decompress(data []byte) ([]byte, compress.Stats, error) {
	if len(data) < 1 {
		return nil, compress.Stats{}, compress.Corruptf("ctw: empty stream")
	}
	depth := int(data[0])
	if depth < 1 || depth > maxDepth {
		return nil, compress.Stats{}, compress.Corruptf("ctw: depth %d out of range", depth)
	}
	nBases, used := binary.Uvarint(data[1:])
	if used <= 0 {
		return nil, compress.Stats{}, compress.Corruptf("ctw: bad length header")
	}
	if nBases > 1<<34 {
		return nil, compress.Stats{}, compress.Corruptf("ctw: implausible length %d", nBases)
	}
	// The header's nBases is an attacker's claim: size the tree arenas and
	// the output buffer by HeaderPrealloc and grow with the symbols
	// actually decoded, so a hostile tiny payload cannot force the full
	// claim's memory up front.
	hint := compress.HeaderPrealloc(nBases)
	trees := [2]*tree{newTree(depth, hint), newTree(depth, hint)}
	defer trees[0].release()
	defer trees[1].release()
	dec := arith.NewDecoder(data[1+used:])
	out := make([]byte, 0, hint)
	var ctx uint32
	ctxMask := uint32(1<<depth) - 1
	for uint64(len(out)) < nBases {
		var sym byte
		for shift := 1; shift >= 0; shift-- {
			t := trees[1-shift]
			t.descend(ctx)
			p0 := t.predict()
			bit := dec.DecodeBitP(probTo16(p0))
			t.update(bit)
			ctx = (ctx<<1 | uint32(bit)) & ctxMask
			sym = sym<<1 | byte(bit)
		}
		out = append(out, sym)
	}
	st := compress.Stats{
		WorkNS:  c.work(2 * len(out)),
		PeakMem: trees[0].memory() + trees[1].memory() + len(data) + len(out),
	}
	return out, st, nil
}
