package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"github.com/srl-nuces/ctxdna/internal/core"
	"github.com/srl-nuces/ctxdna/internal/seq"
	"github.com/srl-nuces/ctxdna/internal/synth"
)

// Workload shapes. Sizes are in bases; a sequence travels as one ASCII
// byte per base, so KiB of body and Ki bases coincide.
const (
	smallItems    = 64
	smallMinBases = 1 << 10
	smallMaxBases = 40 << 10

	archiveItems    = 32
	archiveOps      = 1024
	archiveMinBases = 256 << 10
	archiveMaxBases = 1 << 20
	// Every archiveOverwriteEvery-th archive-range call (2%) re-uploads a
	// stored archive; the rest are range reads. Spacing them evenly, and
	// cycling their targets through every archive, keeps each few seconds
	// of the run the same mix.
	archiveOverwriteEvery = 50
	archiveMinWindow      = 100
	archiveMaxWindow      = 16 << 10
	// archiveZipfS skews which archive a call touches: a few hot names,
	// a long tail of cold ones.
	archiveZipfS = 1.2

	exchangeItems    = 24
	exchangeMinBases = 256 << 10
	exchangeMaxBases = 1 << 20

	// blockSize is the CXB1 block size of every stored archive and every
	// exchange.
	blockSize = 64 << 10
)

// contexts are the four declared client contexts serve.RunLoad cycles
// through by default (1000, 2100, 2400 and 3000 MHz).
var contexts = []core.Context{
	{RAMMB: 768, CPUMHz: 1000, BandwidthMbps: 2},
	{RAMMB: 2048, CPUMHz: 2100, BandwidthMbps: 5},
	{RAMMB: 3584, CPUMHz: 2400, BandwidthMbps: 10},
	{RAMMB: 7168, CPUMHz: 3000, BandwidthMbps: 20},
}

// item is one generated sequence with the context it is declared under.
type item struct {
	name    string
	symbols []byte       // codes 0..3, what the codecs see
	body    []byte       // ASCII bases, what travels over HTTP
	ctx     core.Context // declared client context (serve workloads)
}

// op is one archive-range call: a range read of [off, off+n) of
// items[item], or an idempotent overwrite of items[item] when overwrite is
// set.
type op struct {
	item      int
	overwrite bool
	off, n    int
}

// plan is everything a workload sends, fixed from the seed before any
// timing starts. The program under test only ever sees these inputs.
type plan struct {
	workload string
	items    []item
	ops      []op // archive-range only
}

// strataSizes is n lengths spanning [lo, hi]: the centres of n equal
// strata, smallest first. They are the same under every seed, so every
// seed moves the same number of bases and the pinned model routes the same
// sizes to each codec; the seed draws the order and the bases.
func strataSizes(n, lo, hi int) []int {
	sizes := make([]int, n)
	span := float64(hi - lo)
	for i := range sizes {
		sizes[i] = lo + int(span*(float64(i)+0.5)/float64(n))
	}
	return sizes
}

// balancedOrder is a seed-shuffled order of n strata in which stratum i
// sits next to stratum n-1-i. Each such pair sums to about the same size,
// so every stretch of a run sends about the same mix of sizes, whatever
// the seed and wherever the run stops in the cycle.
func balancedOrder(rng *rand.Rand, n int) []int {
	order := make([]int, 0, n)
	for _, i := range rng.Perm((n + 1) / 2) {
		a, b := i, n-1-i
		if rng.Intn(2) == 1 {
			a, b = b, a
		}
		order = append(order, a)
		if a != b {
			order = append(order, b)
		}
	}
	return order
}

// centerOut lists 0..n-1 from the middle outwards: n/2, n/2-1, n/2+1, ...
func centerOut(n int) []int {
	out := []int{n / 2}
	for d := 1; len(out) < n; d++ {
		if i := n/2 - d; i >= 0 {
			out = append(out, i)
		}
		if i := n/2 + d; i < n {
			out = append(out, i)
		}
	}
	return out
}

// generate builds one synthetic sequence with the same profile family as
// serve.RunLoad's plan: mostly random bases with sparse short repeats.
func generate(rng *rand.Rand, n int, seed int64) []byte {
	p := synth.Profile{
		Length:     n,
		GC:         0.35 + 0.2*rng.Float64(),
		RepeatProb: 0.002,
		RepeatMin:  16,
		RepeatMax:  128,
	}
	return p.Generate(seed)
}

// makeItems generates n sequences of stratified sizes in balanced order.
// byStratum[s] is the index of the item whose size came from stratum s.
func makeItems(rng *rand.Rand, seed int64, prefix string, n, lo, hi int) (items []item, byStratum []int) {
	sizes := strataSizes(n, lo, hi)
	items = make([]item, n)
	byStratum = make([]int, n)
	for i, s := range balancedOrder(rng, n) {
		byStratum[s] = i
		symbols := generate(rng, sizes[s], seed*1_000_003+int64(i))
		items[i] = item{
			name:    fmt.Sprintf("%s-%03d", prefix, i),
			symbols: symbols,
			body:    seq.Decode(symbols),
			// The context goes with the size stratum, so every seed pairs
			// sizes and contexts alike and the pinned model routes the
			// same share of bases to each codec.
			ctx: contexts[s%len(contexts)],
		}
	}
	return items, byStratum
}

// makePlan expands a seed into the named workload's plan.
func makePlan(workload string, seed int64) (*plan, error) {
	rng := rand.New(rand.NewSource(seed))
	p := &plan{workload: workload}
	switch workload {
	case "paper-small":
		p.items, _ = makeItems(rng, seed, "small", smallItems, smallMinBases, smallMaxBases)
	case "archive-range":
		var byStratum []int
		p.items, byStratum = makeItems(rng, seed, "archive", archiveItems, archiveMinBases, archiveMaxBases)
		zipf := rand.NewZipf(rng, archiveZipfS, 1, archiveItems-1)
		// A range read fetches its whole archive from the fleet, so its
		// cost follows the archive's size. Zipf ranks therefore map to
		// size strata from the middle outwards: the hottest archive is
		// median-sized under every seed, and only which archive that is,
		// and its contents, vary with the seed.
		hot := centerOut(archiveItems)
		for r, s := range hot {
			hot[r] = byStratum[s]
		}
		rewrite := rng.Perm(archiveItems)
		p.ops = make([]op, archiveOps)
		for i := range p.ops {
			if i%archiveOverwriteEvery == archiveOverwriteEvery-1 {
				p.ops[i] = op{item: rewrite[(i/archiveOverwriteEvery)%archiveItems], overwrite: true}
				continue
			}
			o := op{item: hot[zipf.Uint64()]}
			size := len(p.items[o.item].symbols)
			o.n = archiveMinWindow + rng.Intn(archiveMaxWindow-archiveMinWindow+1)
			o.off = rng.Intn(size - o.n + 1)
			p.ops[i] = o
		}
	case "exchange":
		p.items, _ = makeItems(rng, seed, "exchange", exchangeItems, exchangeMinBases, exchangeMaxBases)
	default:
		return nil, fmt.Errorf("unknown workload %q (want paper-small, archive-range or exchange)", workload)
	}
	return p, nil
}

// compressCtx is the context the daemon resolves for a compress of it: the
// declared client context plus the file size the daemon measures.
func (it item) compressCtx() core.Context {
	c := it.ctx
	c.FileSizeKB = float64(len(it.symbols)) / 1024
	return c
}

// digest hashes every input the plan fixes, for the determinism tests.
func (p *plan) digest() [32]byte {
	h := sha256.New()
	var buf [8]byte
	num := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for _, it := range p.items {
		h.Write([]byte(it.name))
		h.Write(it.symbols)
		num(it.ctx.FileSizeKB)
		num(it.ctx.RAMMB)
		num(it.ctx.CPUMHz)
		num(it.ctx.BandwidthMbps)
	}
	for _, o := range p.ops {
		num(float64(o.item))
		num(float64(o.off))
		num(float64(o.n))
		if o.overwrite {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}
