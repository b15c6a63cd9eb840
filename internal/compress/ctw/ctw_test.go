package ctw

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/srl-nuces/ctxdna/internal/compress"
	"github.com/srl-nuces/ctxdna/internal/compress/compresstest"
	"github.com/srl-nuces/ctxdna/internal/synth"
)

func TestConformance(t *testing.T) {
	compresstest.Conformance(t, func() compress.Codec { return New(DefaultDepth) })
}

func TestConformanceShallow(t *testing.T) {
	compresstest.Conformance(t, func() compress.Codec { return New(4) })
}

func TestRatioBeatsTwoBits(t *testing.T) {
	// On repeat-rich DNA, CTW must beat the 2-bit floor comfortably.
	p := synth.Profile{Name: "rich", Length: 60000, GC: 0.4, RepeatProb: 0.02, RepeatMin: 20, RepeatMax: 500, RCFraction: 0.2, MutationRate: 0.01}
	compresstest.RatioUnder(t, New(DefaultDepth), p, 42, 1.9)
}

func TestRatioOnIIDNearTwoBits(t *testing.T) {
	// On iid uniform DNA no model can beat 2 bits/base; CTW must stay close
	// (KT redundancy is O(log n / n)).
	p := synth.Profile{Name: "iid", Length: 50000, GC: 0.5}
	src := p.Generate(7)
	data, _, err := New(DefaultDepth).Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	bpb := compress.Ratio(len(src), len(data))
	if bpb > 2.10 {
		t.Fatalf("iid rate %.3f bits/base, want <= 2.10", bpb)
	}
	if bpb < 1.95 {
		t.Fatalf("iid rate %.3f bits/base is below entropy — broken accounting", bpb)
	}
}

func TestDepthImprovesStructuredRatio(t *testing.T) {
	// A strongly Markov source should compress better with more context.
	p := synth.Profile{Name: "markov", Length: 40000, GC: 0.35, RepeatProb: 0.03, RepeatMin: 30, RepeatMax: 600, RCFraction: 0, MutationRate: 0.005}
	src := p.Generate(9)
	shallow, _, err := New(2).Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	deep, _, err := New(16).Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(deep) >= len(shallow) {
		t.Fatalf("depth 16 (%d bytes) did not beat depth 2 (%d bytes)", len(deep), len(shallow))
	}
}

func TestStatsSymmetry(t *testing.T) {
	// CTW's decompression runs the same mixture computation as compression:
	// modeled work must be identical — this is what makes its decompression
	// the slowest of the paper's four codecs.
	p := synth.Profile{Length: 20000, GC: 0.4, RepeatProb: 0.01, RepeatMin: 20, RepeatMax: 200}
	src := p.Generate(3)
	c := New(DefaultDepth)
	data, cst, err := c.Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	_, dst, err := c.Decompress(data)
	if err != nil {
		t.Fatal(err)
	}
	if cst.WorkNS != dst.WorkNS {
		t.Fatalf("work asymmetry: compress %d, decompress %d", cst.WorkNS, dst.WorkNS)
	}
	if cst.PeakMem < 1<<20 {
		t.Errorf("CTW peak memory %d suspiciously small for a depth-16 tree", cst.PeakMem)
	}
}

func TestNodeBudget(t *testing.T) {
	p := synth.Profile{Length: 100000, GC: 0.45, RepeatProb: 0.01, RepeatMin: 15, RepeatMax: 200}
	src := p.Generate(5)
	tr := newTree(16, 2*len(src))
	var ctx uint32
	mask := uint32(1<<16) - 1
	for _, sym := range src[:20000] {
		for shift := 1; shift >= 0; shift-- {
			bit := int(sym >> shift & 1)
			tr.descend(ctx)
			tr.predict() // update reuses predict's per-depth values
			tr.update(bit)
			ctx = (ctx<<1 | uint32(bit)) & mask
		}
	}
	if len(tr.nodes) > 1<<17 {
		t.Fatalf("%d nodes exceeds the context-space bound", len(tr.nodes))
	}
	if len(tr.kids) != len(tr.nodes) {
		t.Fatalf("%d child-link entries for %d nodes", len(tr.kids), len(tr.nodes))
	}
}

// TestPooledArenasConcurrent runs compress and decompress at depths 2, 16
// and 30 from several goroutines at once, mixed with a hostile frame whose
// header claims the deepest context, and demands every output and Stats
// equal a sequential run: an arena reused from treePool must behave exactly
// like a fresh one, whatever depth it served before.
func TestPooledArenasConcurrent(t *testing.T) {
	type result struct {
		out []byte
		st  compress.Stats
		err error
	}
	type call struct {
		name string
		run  func() result
	}
	var calls []call
	for _, depth := range []int{2, 16, 30} {
		c := New(depth)
		for _, n := range []int{600, 2500} {
			src := synth.Profile{Length: n, GC: 0.45, RepeatProb: 0.01, RepeatMin: 16, RepeatMax: 200, MutationRate: 0.02}.Generate(int64(depth*n + 1))
			frame, _, err := c.Compress(src)
			if err != nil {
				t.Fatal(err)
			}
			calls = append(calls,
				call{fmt.Sprintf("compress/d%d/n%d", depth, n), func() result {
					out, st, err := c.Compress(src)
					return result{out, st, err}
				}},
				call{fmt.Sprintf("decompress/d%d/n%d", depth, n), func() result {
					out, st, err := c.Decompress(frame)
					return result{out, st, err}
				}})
		}
	}
	hostile := hostileFrame()
	calls = append(calls, call{"decompress/hostile", func() result {
		out, st, err := New(DefaultDepth).Decompress(hostile)
		return result{out, st, err}
	}})

	want := make([]result, len(calls))
	for i, c := range calls {
		if want[i] = c.run(); want[i].err != nil {
			t.Fatalf("%s: %v", c.name, want[i].err)
		}
	}

	const workers = 6
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range calls {
				i := (k + w*5) % len(calls) // each worker starts elsewhere
				got := calls[i].run()
				if got.err != nil || got.st != want[i].st || !bytes.Equal(got.out, want[i].out) {
					t.Errorf("worker %d: %s: concurrent run (stats %+v, err %v) differs from sequential (stats %+v)",
						w, calls[i].name, got.st, got.err, want[i].st)
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestPoolDropsOversizeArenas: an arena grown past a full DefaultDepth
// context space, which only a deeper header can cause, must not be kept
// for later calls, whichever of its two arrays is over the cap. Append
// rounds each array's growth by its own element size, so one can pass the
// cap while the other stays under it.
func TestPoolDropsOversizeArenas(t *testing.T) {
	big := newTree(maxDepth, maxPooledNodes/4)
	if cap(big.nodes) <= maxPooledNodes || cap(big.kids) <= maxPooledNodes {
		t.Fatalf("arena of %d nodes and %d links is not oversize", cap(big.nodes), cap(big.kids))
	}
	wideNodes := newTree(DefaultDepth, 1)
	wideNodes.nodes = make([]node, 1, maxPooledNodes+1)
	wideKids := newTree(DefaultDepth, 1)
	wideKids.kids = make([][2]int32, 1, maxPooledNodes+1)
	for _, tr := range []*tree{big, wideNodes, wideKids} {
		tr.release()
	}
	for i := 0; i < 6; i++ {
		tr := newTree(DefaultDepth, 1)
		if cap(tr.nodes) > maxPooledNodes || cap(tr.kids) > maxPooledNodes {
			t.Fatalf("pool handed out an oversize arena of %d nodes and %d links", cap(tr.nodes), cap(tr.kids))
		}
		defer tr.release() // held until the end, so each Get takes another
	}
}

func TestRejectsInvalidSymbol(t *testing.T) {
	if _, _, err := New(8).Compress([]byte{0, 1, 4}); err == nil {
		t.Fatal("accepted invalid symbol")
	}
}

func TestRejectsBadHeader(t *testing.T) {
	c := New(8)
	if _, _, err := c.Decompress(nil); err == nil {
		t.Fatal("accepted empty stream")
	}
	if _, _, err := c.Decompress([]byte{99, 1, 2, 3}); err == nil {
		t.Fatal("accepted absurd depth")
	}
}

func TestNewPanicsOnBadDepth(t *testing.T) {
	for _, d := range []int{0, -1, 31} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", d)
				}
			}()
			New(d)
		}()
	}
}

func BenchmarkCompress(b *testing.B) {
	p := synth.Profile{Length: 1 << 17, GC: 0.4, RepeatProb: 0.015, RepeatMin: 20, RepeatMax: 400, MutationRate: 0.01}
	src := p.Generate(1)
	c := New(DefaultDepth)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Compress(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompress(b *testing.B) {
	p := synth.Profile{Length: 1 << 17, GC: 0.4, RepeatProb: 0.015, RepeatMin: 20, RepeatMax: 400, MutationRate: 0.01}
	src := p.Generate(1)
	c := New(DefaultDepth)
	data, _, err := c.Compress(src)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Decompress(data); err != nil {
			b.Fatal(err)
		}
	}
}

// paperSmallInputs is the CTW share of perfbench's paper-small traffic:
// eight sizes spread over the band its pinned model routes to CTW (about
// 11.4 to 40 Ki bases), from perfbench's generate profile (GC 0.35–0.55,
// sparse repeats of 16–128 bases).
func paperSmallInputs() (inputs [][]byte, bases int) {
	const n, lo, hi = 8, 11_674, 40 << 10
	rng := rand.New(rand.NewSource(2015))
	for i := 0; i < n; i++ {
		p := synth.Profile{Length: lo + (hi-lo)*i/(n-1), GC: 0.35 + 0.2*rng.Float64(), RepeatProb: 0.002, RepeatMin: 16, RepeatMax: 128}
		inputs = append(inputs, p.Generate(int64(i+1)))
		bases += p.Length
	}
	return inputs, bases
}

func BenchmarkPaperSmallCompress(b *testing.B) {
	inputs, bases := paperSmallInputs()
	c := New(DefaultDepth)
	compresstest.BenchTwoWorkers(b, len(inputs), bases, func(i int) error {
		_, _, err := c.Compress(inputs[i])
		return err
	})
}

func BenchmarkPaperSmallDecompress(b *testing.B) {
	inputs, bases := paperSmallInputs()
	c := New(DefaultDepth)
	frames := make([][]byte, len(inputs))
	for i, src := range inputs {
		var err error
		if frames[i], _, err = c.Compress(src); err != nil {
			b.Fatal(err)
		}
	}
	compresstest.BenchTwoWorkers(b, len(frames), bases, func(i int) error {
		_, _, err := c.Decompress(frames[i])
		return err
	})
}
