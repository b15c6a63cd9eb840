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
	"math/bits"
	"slices"
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

// node is one context-tree node's statistics. Counts saturate by halving,
// which doubles as adaptivity to non-stationary sources. Its child links
// live apart, in tree.kids at the same index.
type node struct {
	a, b uint32 // KT counts of zeros and ones
	beta float64
}

// nodeBytes is one node's in-memory size used for RAM accounting: its
// statistics plus its two child links.
const nodeBytes = 8 + 8 + 8

// maxDepth is the deepest context New accepts and Decompress decodes.
const maxDepth = 30

// tree is a growable arena of nodes rooted at index 0, in two parallel
// arrays: nodes holds the statistics, and kids the child links descend
// follows, so descend's chain of dependent loads runs through 8 bytes per
// node. Both grow and reset together.
type tree struct {
	nodes []node
	kids  [][2]int32 // child links by node index, -1 when absent
	depth int
	// Scratch for the current context path, indexed by depth: the nodes
	// descend visited and the KT estimate of a zero it computed at each
	// old one, then the mixtures of a zero and of a one that predict
	// computed, which update reuses. Nodes at depths >= fresh were created
	// by the last descend. update reads pw[d+1] right after pkt[d]; one
	// spare entry lets that index go unchecked.
	path  [maxDepth + 1]int32
	pkt   [maxDepth + 1]float64
	pw    [2][maxDepth + 2]float64
	fresh int
}

// maxPooledClass is the largest size class treePools keep: arenas of up
// to maxPooledNodes nodes in either array, enough for a full DefaultDepth
// context space, so a frame that claims a deep context cannot leave a
// large arena behind.
const (
	maxPooledClass = DefaultDepth + 1
	maxPooledNodes = 1 << maxPooledClass
)

// treePools recycle tree arenas across calls, one pool per size class:
// class c holds arenas with room for at least 1<<c nodes in both arrays.
// An arena goes back to the largest class it can serve, and newTree takes
// the smallest pooled arena that holds its hint, so no arena that fits is
// dropped, whatever sizes the calls mix. The serving path builds a fresh
// codec per request, so the arenas cannot live on a Codec.
var treePools [maxPooledClass + 1]sync.Pool

func newTree(depth, bitCount int) *tree {
	// The arena can never exceed the context space (2^(depth+1)-1 nodes) and
	// rarely exceeds a few nodes per coded bit.
	hint := 4*bitCount + 16
	if maxNodes := 1 << (depth + 1); hint > maxNodes {
		hint = maxNodes
	}
	// The smallest class that holds hint nodes. Past the pooled classes a
	// fresh arena holds exactly hint nodes, and release drops it.
	class := bits.Len(uint(hint - 1))
	var t *tree
	for c := class; t == nil && c <= maxPooledClass; c++ {
		t, _ = treePools[c].Get().(*tree)
	}
	if t == nil {
		n := hint
		if class <= maxPooledClass {
			n = 1 << class
		}
		t = &tree{nodes: make([]node, 1, n), kids: make([][2]int32, 1, n)}
	}
	t.depth = depth
	// Truncating to the root is a full reset: newNode appends every later
	// node in full.
	t.nodes = t.nodes[:1]
	t.kids = t.kids[:1]
	t.nodes[0] = node{beta: 1}
	t.kids[0] = [2]int32{-1, -1}
	return t
}

// release returns t to the pool of the largest class it can serve, unless
// either array has grown past maxPooledNodes; t must not be used
// afterwards.
func (t *tree) release() {
	if cap(t.nodes) <= maxPooledNodes && cap(t.kids) <= maxPooledNodes {
		treePools[bits.Len(uint(min(cap(t.nodes), cap(t.kids))))-1].Put(t)
	}
}

func (t *tree) newNode() int32 {
	t.nodes = append(t.nodes, node{beta: 1})
	t.kids = append(t.kids, [2]int32{-1, -1})
	return int32(len(t.nodes) - 1)
}

// descend walks from the root along the context (most recent bit first),
// creating nodes as needed, and records the path, where its fresh suffix
// begins, and the KT estimate of each node above it. Those estimates need
// no walk of their own: their loads and divisions run beside the chain of
// child-link loads.
func (t *tree) descend(ctx uint32) {
	cur := int32(0)
	t.path[0] = 0
	t.pkt[0] = ktP0(&t.nodes[0])
	t.fresh = t.depth + 1
	for d := 1; d <= t.depth; d++ {
		next := t.kids[cur][ctx>>(d-1)&1]
		if next < 0 {
			// A new node has no children: the rest of the path is new.
			t.fresh = d
			for ; d <= t.depth; d++ {
				next = t.newNode()
				t.kids[cur][ctx>>(d-1)&1] = next
				t.path[d] = next
				cur = next
			}
			return
		}
		t.path[d] = next
		t.pkt[d] = ktP0(&t.nodes[next])
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
// (descend must have been called). It walks leaf-to-root over descend's KT
// estimates, recording both mixtures, of a zero and of a one, for update.
// The two chains are independent, so the second costs little.
//
// A fresh node has zero counts and β = 1, so its KT estimate is exactly 1/2
// and so is its mixture over a fresh child; the walk starts above the fresh
// suffix with that value.
func (t *tree) predict() float64 {
	p0, p1 := 0.5, 0.5
	d := t.fresh - 1
	if d == t.depth {
		// Leaf: pure KT.
		p0 = t.pkt[d]
		p1 = 1 - p0
		d--
	}
	// The mixtures below the walk's first node: the leaf's KT estimates,
	// or ½ at the top of the fresh suffix.
	t.pw[0][d+1], t.pw[1][d+1] = p0, p1
	for ; d >= 0; d-- {
		n := &t.nodes[t.path[d]]
		pkt := t.pkt[d]
		// float64() keeps each product rounded on its own: fused into the
		// add, it would round differently on arm64 and break the stream.
		p0 = (float64(n.beta*pkt) + p0) / (n.beta + 1)
		p1 = (float64(n.beta*(1-pkt)) + p1) / (n.beta + 1)
		t.pw[0][d] = p0
		t.pw[1][d] = p1
	}
	return p0
}

// update records the coded bit along the current path, maintaining counts
// and β ratios bottom-up. predict must have run for this path: update
// reuses descend's KT estimates and predict's mixtures for the coded bit,
// which are exactly the Pw(child) values β needs. On the fresh suffix
// every mixture is 1/2 and β stays exactly 1, so only the counts change
// there, and a leaf has no β.
func (t *tree) update(bit int) {
	for d := t.fresh; d <= t.depth; d++ {
		bump(&t.nodes[t.path[d]], bit)
	}
	d := t.fresh - 1
	if d == t.depth {
		bump(&t.nodes[t.path[d]], bit)
		d--
	}
	pw := &t.pw[bit]
	for ; d >= 0; d-- {
		n := &t.nodes[t.path[d]]
		pkt := t.pkt[d]
		if bit == 1 {
			pkt = 1 - pkt
		}
		// β ← β · Pe(bit)/Pw(child = bit)
		n.beta *= pkt / pw[d+1]
		if n.beta > betaMax {
			n.beta = betaMax
		} else if n.beta < betaMin {
			n.beta = betaMin
		}
		bump(n, bit)
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
	hi, lo := newTree(c.depth, len(src)), newTree(c.depth, len(src))
	defer hi.release()
	defer lo.release()
	enc := arith.NewEncoder(hdr[:n], len(src)/3+64)
	var ctx uint32
	ctxMask := uint32(1<<c.depth) - 1
	for _, sym := range src {
		if sym > 3 {
			return nil, compress.Stats{}, compress.Corruptf("ctw: invalid symbol %d", sym)
		}
		// The trees share no state and both bits are known, so each step
		// runs on both trees at once: two walks, then two mixture chains,
		// in flight together. Each tree still goes descend, predict,
		// update, and the coder still takes the high bit first.
		bHi, bLo := int(sym>>1), int(sym&1)
		ctxLo := (ctx<<1 | uint32(bHi)) & ctxMask
		hi.descend(ctx)
		lo.descend(ctxLo)
		p0Hi, p0Lo := hi.predict(), lo.predict()
		enc.EncodeBitP(probTo16(p0Hi), bHi)
		enc.EncodeBitP(probTo16(p0Lo), bLo)
		hi.update(bHi)
		lo.update(bLo)
		ctx = (ctxLo<<1 | uint32(bLo)) & ctxMask
	}
	out := enc.Finish()
	st := compress.Stats{
		WorkNS:  c.work(2 * len(src)),
		PeakMem: hi.memory() + lo.memory() + len(out),
	}
	return out, st, nil
}

// Decompress implements compress.Codec.
func (c *Codec) Decompress(data []byte) ([]byte, compress.Stats, error) {
	return c.DecompressTo(nil, data)
}

// DecompressTo implements compress.Codec.
func (c *Codec) DecompressTo(dst, data []byte) ([]byte, compress.Stats, error) {
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
	out := slices.Grow(dst[:0], hint)
	var ctx uint32
	ctxMask := uint32(1<<depth) - 1
	// The trees take turns: each one's context waits on the bit the other
	// just decoded, and starting its walk before the other's update
	// measured no faster.
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
		// A truncated stream reads as zeros past its end: checked once a
		// stride, it stops within one stride of it.
		if len(out)%arith.OverrunStride == 0 && dec.Overrun() {
			return nil, compress.Stats{}, compress.Corruptf("ctw: stream ends before base %d of %d", len(out), nBases)
		}
	}
	// The last check: a stream that ran out within the last stride.
	if dec.Overrun() {
		return nil, compress.Stats{}, compress.Corruptf("ctw: stream ends before its %d bases", nBases)
	}
	st := compress.Stats{
		WorkNS:  c.work(2 * len(out)),
		PeakMem: trees[0].memory() + trees[1].memory() + len(data) + len(out),
	}
	return out, st, nil
}
