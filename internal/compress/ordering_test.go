package compress_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/srl-nuces/ctxdna/internal/compress"
	"github.com/srl-nuces/ctxdna/internal/synth"

	// Register all codecs.
	_ "github.com/srl-nuces/ctxdna/internal/compress/biocompress"
	_ "github.com/srl-nuces/ctxdna/internal/compress/ctw"
	_ "github.com/srl-nuces/ctxdna/internal/compress/dnax"
	_ "github.com/srl-nuces/ctxdna/internal/compress/gencompress"
	_ "github.com/srl-nuces/ctxdna/internal/compress/gzipx"
	_ "github.com/srl-nuces/ctxdna/internal/compress/twobit"
)

func TestRegistry(t *testing.T) {
	names := compress.Names()
	want := []string{"biocompress", "ctw", "dnacompress", "dnapack", "dnax", "gencompress", "gzip", "twobit", "xm"}
	if len(names) != len(want) {
		t.Fatalf("registry has %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("registry has %v, want %v", names, want)
		}
	}
	for _, n := range names {
		c, err := compress.New(n)
		if err != nil {
			t.Fatal(err)
		}
		if c.Name() != n {
			t.Errorf("codec %q reports name %q", n, c.Name())
		}
	}
	if _, err := compress.New("nope"); err == nil {
		t.Error("unknown codec accepted")
	}
}

func TestPaperSet(t *testing.T) {
	set := compress.PaperSet()
	want := []string{"ctw", "dnax", "gencompress", "gzip"}
	for i, c := range set {
		if c.Name() != want[i] {
			t.Fatalf("PaperSet[%d] = %s, want %s", i, c.Name(), want[i])
		}
	}
}

// measure compresses src with a fresh codec and returns (bytes, stats).
func measure(t *testing.T, name string, src []byte) (int, compress.Stats) {
	t.Helper()
	c, err := compress.New(name)
	if err != nil {
		t.Fatal(err)
	}
	data, st, err := c.Compress(src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return len(data), st
}

// TestPaperShapeRatios verifies the paper's Figure 4 ordering on a
// representative bacterial-like sequence: GenCompress best ratio, CTW close,
// DNAX mid "fine in compression ratio after Gencompress and CTW", gzip worst
// of the four (and above 2 bits/base).
func TestPaperShapeRatios(t *testing.T) {
	p := synth.Profile{Length: 120000, GC: 0.38, RepeatProb: 0.0015, RepeatMin: 20, RepeatMax: 400, RCFraction: 0.2, MutationRate: 0.02, LocalOrder: 3, LocalBias: 0.55}
	src := p.Generate(2015)

	sizes := map[string]int{}
	for _, name := range []string{"ctw", "dnax", "gencompress", "gzip", "twobit"} {
		sizes[name], _ = measure(t, name, src)
	}
	bpb := func(name string) float64 { return compress.Ratio(len(src), sizes[name]) }

	t.Logf("bits/base: gencompress=%.3f ctw=%.3f dnax=%.3f gzip=%.3f twobit=%.3f",
		bpb("gencompress"), bpb("ctw"), bpb("dnax"), bpb("gzip"), bpb("twobit"))

	if sizes["gzip"] <= sizes["dnax"] || sizes["gzip"] <= sizes["ctw"] || sizes["gzip"] <= sizes["gencompress"] {
		t.Errorf("gzip must have the worst ratio of the four: %v", sizes)
	}
	if bpb("gzip") < 2.0 {
		t.Errorf("gzip below 2 bits/base on DNA: %.3f", bpb("gzip"))
	}
	if sizes["gencompress"] > sizes["dnax"] {
		t.Errorf("gencompress (%d) should beat dnax (%d) on ratio", sizes["gencompress"], sizes["dnax"])
	}
	for _, name := range []string{"ctw", "dnax", "gencompress"} {
		if bpb(name) >= 2.0 {
			t.Errorf("%s did not beat the 2-bit floor: %.3f", name, bpb(name))
		}
	}
}

// TestPaperShapeTimes verifies the modeled-cost ordering behind Figures 5/6:
// GenCompress slowest compression; DNAX fastest DNA-aware compression and
// the least decompression work; CTW the worst decompression.
func TestPaperShapeTimes(t *testing.T) {
	// 250 KB: the large-file regime where the paper's Figure 5 ordering
	// (DNAX fastest DNA codec, GenCompress slowest) holds. Below ~140 KB
	// DNAX's fixed table-initialization cost hands the advantage to CTW and
	// GenCompress — exactly the paper's small-file anomaly, asserted by the
	// crossover tests in the experiment package.
	p := synth.Profile{Length: 250000, GC: 0.4, RepeatProb: 0.0015, RepeatMin: 20, RepeatMax: 400, RCFraction: 0.2, MutationRate: 0.02, LocalOrder: 3, LocalBias: 0.55}
	src := p.Generate(7)

	comp := map[string]int64{}
	decomp := map[string]int64{}
	for _, name := range []string{"ctw", "dnax", "gencompress", "gzip"} {
		c, err := compress.New(name)
		if err != nil {
			t.Fatal(err)
		}
		data, cst, err := c.Compress(src)
		if err != nil {
			t.Fatal(err)
		}
		_, dst, err := c.Decompress(data)
		if err != nil {
			t.Fatal(err)
		}
		comp[name] = cst.WorkNS
		decomp[name] = dst.WorkNS
	}
	t.Logf("compress ms: gencompress=%.1f ctw=%.1f dnax=%.1f gzip=%.1f",
		float64(comp["gencompress"])/1e6, float64(comp["ctw"])/1e6, float64(comp["dnax"])/1e6, float64(comp["gzip"])/1e6)
	t.Logf("decompress ms: ctw=%.1f gencompress=%.1f dnax=%.1f gzip=%.1f",
		float64(decomp["ctw"])/1e6, float64(decomp["gencompress"])/1e6, float64(decomp["dnax"])/1e6, float64(decomp["gzip"])/1e6)

	if comp["gencompress"] <= comp["ctw"] || comp["gencompress"] <= comp["dnax"] || comp["gencompress"] <= comp["gzip"] {
		t.Errorf("GenCompress must be the slowest compressor (Fig. 5): %v", comp)
	}
	if comp["dnax"] >= comp["gencompress"] || comp["dnax"] >= comp["ctw"] {
		t.Errorf("DNAX must compress faster than GenCompress and CTW: %v", comp)
	}
	if decomp["ctw"] <= decomp["dnax"] || decomp["ctw"] <= decomp["gencompress"] || decomp["ctw"] <= decomp["gzip"] {
		t.Errorf("CTW must have the worst decompression (paper §V): %v", decomp)
	}
	if decomp["dnax"] >= decomp["ctw"] || decomp["dnax"] >= decomp["gencompress"] {
		t.Errorf("DNAX must have the least DNA-codec decompression work: %v", decomp)
	}
}

// timeCodecs runs rounds of one compress and one decompress of src per
// codec, interleaving the codecs within each round so they all meet the
// same machine conditions, and lowers comp and decomp to each codec's
// fastest wall time seen. Each round starts from a fresh GC, so little of
// one round's garbage is collected on the next round's clocks; one GC a
// round leaves the codecs' pooled tables in sync.Pool's victim cache, so
// they are timed warm, as a long-running process runs them.
func timeCodecs(t *testing.T, rounds int, codecs []string, src []byte, comp, decomp map[string]time.Duration) {
	t.Helper()
	timed := func(f func()) time.Duration {
		t0 := time.Now()
		f()
		return time.Since(t0)
	}
	lower := func(m map[string]time.Duration, name string, d time.Duration) {
		if old, ok := m[name]; !ok || d < old {
			m[name] = d
		}
	}
	for r := 0; r < rounds; r++ {
		runtime.GC()
		for _, name := range codecs {
			c, err := compress.New(name)
			if err != nil {
				t.Fatal(err)
			}
			var data []byte
			lower(comp, name, timed(func() { data, _, err = c.Compress(src) }))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			lower(decomp, name, timed(func() { _, _, err = c.Decompress(data) }))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}

// measuredOrderings lists the orderings TestPaperShapeTimesMeasured
// asserts that comp and decomp break. Each must hold by a 1.2x margin but
// one: GenCompress leads CTW in compression by only 1.3x to 1.5x at 8 K,
// and by 1.18x at worst beside other test binaries on both cores, which
// is inside a loaded machine's noise, so that lead must only be strict.
func measuredOrderings(n int, comp, decomp map[string]time.Duration) []string {
	var broken []string
	check := func(what string, slow, fast time.Duration, margin float64) {
		if float64(slow) < margin*float64(fast) {
			broken = append(broken, fmt.Sprintf("%d bases: %s: %v is not %.1fx %v", n, what, slow, margin, fast))
		}
	}
	for _, other := range []string{"ctw", "dnax", "gzip"} {
		margin := 1.2
		if other == "ctw" {
			margin = 1
		}
		check("GenCompress compresses slower than "+other, comp["gencompress"], comp[other], margin)
	}
	for _, other := range []string{"dnax", "gencompress", "gzip"} {
		check("CTW decompresses slower than "+other, decomp["ctw"], decomp[other], 1.2)
	}
	for _, other := range []string{"ctw", "gencompress"} {
		check("DNAX compresses faster than "+other, comp[other], comp["dnax"], 1.2)
	}
	return broken
}

// TestPaperShapeTimesMeasured is TestPaperShapeTimes's measured twin. On
// the same profile at 8 K, 30 K and 250 K bases it asserts the wall-clock
// orderings that hold at every size, on the best of 5 timings and with
// the margins measuredOrderings sets: GenCompress is the slowest
// compressor and CTW the slowest decompressor of the four, and DNAX
// compresses fastest of the three DNA-aware codecs, the set
// TestPaperShapeTimes ranks it in (the standard library's gzip is about
// as fast at 8 K and faster above). The small-file crossovers exist only
// in modeled cost:
// DNAX's modeled 8 K compress time is almost all its fixed start-up
// charge, yet measured DNAX beats CTW and GenCompress at every size.
//
// go test runs packages in parallel, and a loaded machine can slow every
// timing of one batch of 5; a size whose orderings do not all hold gets
// up to two more batches. The minimum only falls toward the unloaded
// time, so more batches cannot make an ordering hold that does not.
// Timings mean nothing under -race, and -short skips the seconds this
// takes.
func TestPaperShapeTimesMeasured(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("wall-clock timings: skipped under -short and -race")
	}
	codecs := []string{"ctw", "dnax", "gencompress", "gzip"}
	for _, n := range []int{8_000, 30_000, 250_000} {
		p := synth.Profile{Length: n, GC: 0.4, RepeatProb: 0.0015, RepeatMin: 20, RepeatMax: 400, RCFraction: 0.2, MutationRate: 0.02, LocalOrder: 3, LocalBias: 0.55}
		src := p.Generate(7)
		comp, decomp := map[string]time.Duration{}, map[string]time.Duration{}
		var broken []string
		for batch := 1; batch <= 3; batch++ {
			timeCodecs(t, 5, codecs, src, comp, decomp)
			if broken = measuredOrderings(n, comp, decomp); len(broken) == 0 {
				break
			}
		}
		t.Logf("%d bases: compress %v, decompress %v", n, comp, decomp)
		for _, msg := range broken {
			t.Error(msg)
		}
	}
}

// TestPaperShapeRAM verifies the RAM observations: gzip lowest, CTW heavy
// ("CTW consumes more memory"), on mid-size files.
func TestPaperShapeRAM(t *testing.T) {
	p := synth.Profile{Length: 80000, GC: 0.4, RepeatProb: 0.0015, RepeatMin: 20, RepeatMax: 400, MutationRate: 0.02, LocalOrder: 3, LocalBias: 0.55}
	src := p.Generate(8)
	mem := map[string]int{}
	for _, name := range []string{"ctw", "dnax", "gencompress", "gzip"} {
		_, st := measure(t, name, src)
		mem[name] = st.PeakMem
	}
	t.Logf("peak mem KB: ctw=%d dnax=%d gencompress=%d gzip=%d",
		mem["ctw"]/1024, mem["dnax"]/1024, mem["gencompress"]/1024, mem["gzip"]/1024)
	if mem["gzip"] >= mem["ctw"] || mem["gzip"] >= mem["dnax"] || mem["gzip"] >= mem["gencompress"] {
		t.Errorf("gzip must use the least RAM: %v", mem)
	}
	if mem["ctw"] <= mem["dnax"] {
		t.Errorf("CTW must out-consume DNAX on RAM for this size: %v", mem)
	}
}
