// Package ctxdna_bench is the reproduction harness: one benchmark per table
// and figure of the paper's evaluation, plus ablations of the design
// choices called out in DESIGN.md §5.
//
// Each figure benchmark builds (once) the deterministic experiment grid —
// corpus files × the 32-context cloud grid × the four codecs — and reports
// the figure's headline quantities as custom benchmark metrics, so that
//
//	go test -bench . -benchmem
//
// regenerates every number EXPERIMENTS.md discusses. Absolute magnitudes
// are modeled (reference-core milliseconds); the shapes — who wins, by what
// factor, where the crossovers sit — are the reproduction targets.
package ctxdna_bench

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"github.com/srl-nuces/ctxdna/internal/cloud"
	"github.com/srl-nuces/ctxdna/internal/compress"
	"github.com/srl-nuces/ctxdna/internal/compress/ctw"
	"github.com/srl-nuces/ctxdna/internal/compress/dnax"
	"github.com/srl-nuces/ctxdna/internal/compress/gencompress"
	"github.com/srl-nuces/ctxdna/internal/core"
	"github.com/srl-nuces/ctxdna/internal/dtree"
	"github.com/srl-nuces/ctxdna/internal/experiment"
	"github.com/srl-nuces/ctxdna/internal/match"
	"github.com/srl-nuces/ctxdna/internal/obs"
	"github.com/srl-nuces/ctxdna/internal/synth"

	_ "github.com/srl-nuces/ctxdna/internal/compress/biocompress"
	_ "github.com/srl-nuces/ctxdna/internal/compress/gzipx"
	_ "github.com/srl-nuces/ctxdna/internal/compress/twobit"
)

var paperCodecs = []string{"ctw", "dnax", "gencompress", "gzip"}

var (
	gridOnce sync.Once
	gridVal  *experiment.Grid
	gridErr  error
)

// benchGrid builds the shared experiment grid once: 48 files, 2–256 KB,
// spanning the paper's small-file and large-file regimes. The build is
// kept out of the calling benchmark's time, so that each benchmark times
// only the figure it computes.
func benchGrid(b *testing.B) *experiment.Grid {
	b.Helper()
	b.StopTimer()
	defer b.StartTimer()
	gridOnce.Do(func() {
		files := synth.ExperimentCorpus(synth.CorpusSpec{NumFiles: 48, MinSize: 2 << 10, MaxSize: 256 << 10, Seed: 2015})
		gridVal, gridErr = experiment.Run(files, cloud.Grid(), paperCodecs, experiment.DefaultNoise())
	})
	if gridErr != nil {
		b.Fatal(gridErr)
	}
	return gridVal
}

// benchSummary times one Figure 2, 3, 5 or 6 summary of the grid and
// reports each codec's mean as a custom metric.
func benchSummary(b *testing.B, unit string, value func(core.Measurement) float64) {
	b.Helper()
	g := benchGrid(b)
	var rows []experiment.CodecSummary
	for i := 0; i < b.N; i++ {
		rows = g.SummarizeByCodec(value)
	}
	for _, r := range rows {
		b.ReportMetric(r.Mean, r.Codec+"_"+unit)
	}
}

// BenchmarkFig2UploadTime regenerates Figure 2: upload time per codec across
// contexts. Expected shape: near-identical within a context (upload is
// dominated by latency + size/bandwidth), ordered by compressed size —
// gzip worst, gencompress best.
func BenchmarkFig2UploadTime(b *testing.B) {
	benchSummary(b, "up_ms", func(m core.Measurement) float64 { return m.UploadMS })
}

// BenchmarkFig3RAMUsed regenerates Figure 3: measured RAM per codec.
// Expected shape: noisy and near-tied (the reason RAM models fail), with
// gzip lowest on average and CTW heaviest.
func BenchmarkFig3RAMUsed(b *testing.B) {
	benchSummary(b, "ram_mb", func(m core.Measurement) float64 { return float64(m.RAMBytes) / (1 << 20) })
}

// BenchmarkFig4CompressedSize regenerates Figure 4: bits/base per codec,
// context-invariant. Expected order: gencompress <= dnax < ctw < gzip.
func BenchmarkFig4CompressedSize(b *testing.B) {
	g := benchGrid(b)
	var bpb []float64
	for i := 0; i < b.N; i++ {
		bpb = g.MeanBitsPerBase()
	}
	for ci, codec := range g.Codecs {
		b.ReportMetric(bpb[ci], codec+"_bpb")
	}
}

// BenchmarkFig5CompressionTime regenerates Figure 5. Expected shape:
// GenCompress worst by a wide margin; DNAX flat (fixed table cost) and the
// best above ~140 KB; CPU scaling matters for all, RAM for none (no codec
// thrashes at these sizes).
func BenchmarkFig5CompressionTime(b *testing.B) {
	benchSummary(b, "comp_ms", func(m core.Measurement) float64 { return m.CompressMS })
}

// BenchmarkFig6DownloadTime regenerates Figure 6: download at the fixed
// cloud VM, spread only by compressed size (tens of ms between codecs), and
// the decompression-time observation (DNAX least, CTW worst) reported
// alongside.
func BenchmarkFig6DownloadTime(b *testing.B) {
	benchSummary(b, "down_ms", func(m core.Measurement) float64 { return m.DownloadMS })
	benchSummary(b, "dec_ms", func(m core.Measurement) float64 { return m.DecompressMS })
}

// BenchmarkFig8FileSizes regenerates Figure 8: the file-size-vs-row layout
// of the held-out test set.
func BenchmarkFig8FileSizes(b *testing.B) {
	g := benchGrid(b)
	_, test := g.Split()
	var s experiment.Series
	for i := 0; i < b.N; i++ {
		s = test.FigFileSizeByRow()
	}
	b.ReportMetric(float64(len(s.Y)), "test_rows")
	b.ReportMetric(s.Y[0]/1024, "min_kb")
	b.ReportMetric(s.Y[len(s.Y)-1]/1024, "max_kb")
}

func benchValidation(b *testing.B, method string, w core.Weights) {
	g := benchGrid(b)
	train, test := g.Split()
	var v *experiment.Validation
	var err error
	for i := 0; i < b.N; i++ {
		v, err = experiment.Validate(train, test, method, w, dtree.Config{})
		if err != nil {
			b.Fatal(err)
		}
	}
	below, total := v.GapsBelow(50)
	b.ReportMetric(v.Accuracy, "accuracy")
	b.ReportMetric(float64(total), "gaps")
	b.ReportMetric(float64(below), "gaps_sub50kb")
}

// BenchmarkFig9CHAIDTime regenerates Figures 9/10 (CHAID, time labels).
// Paper: accuracy 0.946, gaps concentrated below 50 KB.
func BenchmarkFig9CHAIDTime(b *testing.B) {
	benchValidation(b, experiment.MethodCHAID, core.TimeOnlyWeights())
}

// BenchmarkFig11CARTTime regenerates Figures 11/12 (CART, time labels).
// Paper: accuracy 0.962, recovers sub-50 KB GenCompress cases CHAID missed.
func BenchmarkFig11CARTTime(b *testing.B) {
	benchValidation(b, experiment.MethodCART, core.TimeOnlyWeights())
}

// BenchmarkFig13CHAIDRAM regenerates Figures 13/14 (CHAID, RAM labels).
// Paper: accuracy 0.361 — "the results are not good".
func BenchmarkFig13CHAIDRAM(b *testing.B) {
	benchValidation(b, experiment.MethodCHAID, core.RAMOnlyWeights())
}

// BenchmarkFig15CARTRAM regenerates Figures 15/16 (CART, RAM labels).
// Paper: accuracy 0.334.
func BenchmarkFig15CARTRAM(b *testing.B) {
	benchValidation(b, experiment.MethodCART, core.RAMOnlyWeights())
}

// BenchmarkTable2Accuracy regenerates the full Table 2 sweep: 16 weight
// combinations × {CART, CHAID}. Key metrics reported: the single-variable
// extremes. Paper: TIME 94.6/96.2 %, CompressionTime 98.5 %, RAM 33.5/36.1 %,
// mixes 22–46 %.
func BenchmarkTable2Accuracy(b *testing.B) {
	g := benchGrid(b)
	train, test := g.Split()
	var rows []experiment.Table2Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiment.Table2(train, test, dtree.Config{})
		if err != nil {
			b.Fatal(err)
		}
	}
	report := func(metric, method, weight, v1 string) {
		if acc, ok := experiment.Table2Lookup(rows, method, weight, v1); ok {
			b.ReportMetric(acc, metric)
		}
	}
	report("cart_time", "CART", "100", "TIME")
	report("chaid_time", "CHAID", "100", "TIME")
	report("cart_ram", "CART", "100", "RAM")
	report("chaid_ram", "CHAID", "100", "RAM")
	report("cart_ctime", "CART", "100", "CompressionTime")
	report("cart_mix6040", "CART", "60:40", "RAM")
}

// --- Parallel pipeline (EXPERIMENTS.md "Parallel grid build") ---

// parallelBenchFiles is the corpus for the jobs sweep: big enough that
// per-run work dominates pool overhead, small enough to iterate.
func parallelBenchFiles() []synth.File {
	return synth.ExperimentCorpus(synth.CorpusSpec{NumFiles: 16, MinSize: 2 << 10, MaxSize: 64 << 10, Seed: 2015})
}

// BenchmarkRunParallelJobs sweeps the worker count over the full grid
// build. On multi-core hardware the (file × codec) fan-out scales nearly
// linearly until jobs reaches the core count (the acceptance target is
// >= 2x at jobs=4); on a single-core runner every setting degenerates to
// sequential wall-clock, which the recorded ns/op makes visible.
func BenchmarkRunParallelJobs(b *testing.B) {
	files := parallelBenchFiles()
	contexts := cloud.Grid()
	for _, jobs := range []int{1, 2, 4, 8} {
		b.Run(benchName("jobs", jobs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := experiment.RunGrid(context.Background(), files, contexts, paperCodecs, experiment.DefaultNoise(), experiment.RunConfig{Jobs: jobs}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRunCachedSweep measures a repeated sweep over an already-seen
// corpus: with a warm content-hash cache the grid rebuild skips every
// compression and collapses to context expansion.
func BenchmarkRunCachedSweep(b *testing.B) {
	files := parallelBenchFiles()
	contexts := cloud.Grid()
	cache := compress.NewCache()
	cfg := experiment.RunConfig{Jobs: 4, Cache: cache}
	if _, _, err := experiment.RunGrid(context.Background(), files, contexts, paperCodecs, experiment.DefaultNoise(), cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiment.RunGrid(context.Background(), files, contexts, paperCodecs, experiment.DefaultNoise(), cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	hits, misses := cache.Counters()
	b.ReportMetric(float64(hits)/float64(hits+misses), "hit_rate")
}

// --- Block engine (DESIGN.md §12) ---

// blockBenchSeq is the block-engine corpus: 1 MB of corpus-profile
// sequence, sixteen 64 KB blocks — enough fan-out for the pool to matter.
func blockBenchSeq() []byte {
	p := synth.Profile{Length: 1 << 20, GC: 0.42, RepeatProb: 0.0015, RepeatMin: 20, RepeatMax: 400}
	return p.Generate(61)
}

// BenchmarkBlockCompressJobs sweeps the block worker count over a 1 MB
// sequence split into 64 KB blocks. Output bytes are identical at every
// setting (asserted once), so the sweep isolates pure pool scaling. The
// end-to-end block costs are perfbench's (perfbench/README.md).
func BenchmarkBlockCompressJobs(b *testing.B) {
	src := blockBenchSeq()
	opts := compress.BlockOptions{BlockSize: 64 << 10}
	base, _, err := compress.BlockCompressObserved(nil, "dnax", src, opts)
	if err != nil {
		b.Fatal(err)
	}
	for _, jobs := range []int{1, 2, 4, 8} {
		b.Run(benchName("jobs", jobs), func(b *testing.B) {
			o := opts
			o.Jobs = jobs
			container, _, err := compress.BlockCompressObserved(nil, "dnax", src, o)
			if err != nil || !bytes.Equal(container, base) {
				b.Fatalf("jobs=%d container diverged (err=%v)", jobs, err)
			}
			b.SetBytes(int64(len(src)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := compress.BlockCompressObserved(nil, "dnax", src, o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBlockSeek measures random-access reads from a sealed container:
// a 512-base window through Slice decodes only the touched block, versus
// the full-container decode it replaces.
func BenchmarkBlockSeek(b *testing.B) {
	src := blockBenchSeq()
	container, _, err := compress.BlockCompressObserved(nil, "dnax", src, compress.BlockOptions{BlockSize: 64 << 10})
	if err != nil {
		b.Fatal(err)
	}
	r, err := compress.OpenBlocks(container, compress.Limits{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("slice512", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			off := (i * 37 * 512) % (len(src) - 512)
			if _, _, err := r.Slice(off, 512); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full", func(b *testing.B) {
		b.SetBytes(int64(len(src)))
		for i := 0; i < b.N; i++ {
			if _, _, err := r.Decompress(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Ablations (DESIGN.md §5) ---

// ablateRatio compresses a fixed 96 KB corpus sequence and reports
// bits/base plus modeled time for each configuration value.
func ablateSeq() []byte {
	p := synth.Profile{Length: 96 << 10, GC: 0.4, RepeatProb: 0.0015, RepeatMin: 20, RepeatMax: 400,
		RCFraction: 0.2, MutationRate: 0.035, LocalOrder: 3, LocalBias: 0.85}
	return p.Generate(99)
}

// BenchmarkAblationCTWDepth sweeps the CTW context depth: ratio improves
// with depth while time and memory grow linearly in depth.
func BenchmarkAblationCTWDepth(b *testing.B) {
	src := ablateSeq()
	for _, depth := range []int{4, 8, 12, 16, 20} {
		b.Run(benchName("depth", depth), func(b *testing.B) {
			c := ctw.New(depth)
			var out []byte
			var st compress.Stats
			var err error
			b.SetBytes(int64(len(src)))
			for i := 0; i < b.N; i++ {
				out, st, err = c.Compress(src)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(compress.Ratio(len(src), len(out)), "bpb")
			b.ReportMetric(float64(st.WorkNS)/1e6, "model_ms")
			b.ReportMetric(float64(st.PeakMem)/(1<<20), "model_mb")
		})
	}
}

// BenchmarkAblationDNAXMinRepeat sweeps DNAX's minimum repeat length.
func BenchmarkAblationDNAXMinRepeat(b *testing.B) {
	src := ablateSeq()
	for _, minRep := range []int{12, 16, 24, 48, 96} {
		b.Run(benchName("min", minRep), func(b *testing.B) {
			c := dnax.New(dnax.Config{MinRepeat: minRep})
			var out []byte
			var err error
			b.SetBytes(int64(len(src)))
			for i := 0; i < b.N; i++ {
				out, _, err = c.Compress(src)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(compress.Ratio(len(src), len(out)), "bpb")
		})
	}
}

// BenchmarkAblationDNAXStride sweeps the fingerprint stride: stride 1 is
// the exhaustive matcher, 8 the faithful DNAX block scheme.
func BenchmarkAblationDNAXStride(b *testing.B) {
	src := ablateSeq()
	for _, stride := range []int{1, 2, 4, 8, 16} {
		b.Run(benchName("stride", stride), func(b *testing.B) {
			c := dnax.New(dnax.Config{Stride: stride})
			var out []byte
			var err error
			b.SetBytes(int64(len(src)))
			for i := 0; i < b.N; i++ {
				out, _, err = c.Compress(src)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(compress.Ratio(len(src), len(out)), "bpb")
		})
	}
}

// BenchmarkAblationGenCompressCandidates sweeps the approximate-search
// candidate budget: the paper's ratio-vs-time trade-off in one knob.
func BenchmarkAblationGenCompressCandidates(b *testing.B) {
	src := ablateSeq()
	for _, cands := range []int{1, 4, 8, 16, 32} {
		b.Run(benchName("cand", cands), func(b *testing.B) {
			c := gencompress.New(gencompress.Config{MaxCandidates: cands})
			var out []byte
			var st compress.Stats
			var err error
			b.SetBytes(int64(len(src)))
			for i := 0; i < b.N; i++ {
				out, st, err = c.Compress(src)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(compress.Ratio(len(src), len(out)), "bpb")
			b.ReportMetric(float64(st.WorkNS)/1e6, "model_ms")
		})
	}
}

// BenchmarkAblationEditBudget sweeps GenCompress's edit-operation budget
// (the paper's "threshold value" constraining edit operations).
func BenchmarkAblationEditBudget(b *testing.B) {
	src := ablateSeq()
	for _, ops := range []int{1, 4, 12, 24, 48} {
		b.Run(benchName("ops", ops), func(b *testing.B) {
			approx := match.DefaultApproxConfig()
			approx.MaxOps = ops
			c := gencompress.New(gencompress.Config{Approx: approx})
			var out []byte
			var err error
			b.SetBytes(int64(len(src)))
			for i := 0; i < b.N; i++ {
				out, _, err = c.Compress(src)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(compress.Ratio(len(src), len(out)), "bpb")
		})
	}
}

// BenchmarkAblationThrash sweeps VM RAM against a fixed workload to expose
// the thrash model's label impact: execution time jumps once the working
// set exceeds available memory.
func BenchmarkAblationThrash(b *testing.B) {
	st := compress.Stats{WorkNS: 50_000_000, PeakMem: 900 << 20}
	for _, ramMB := range []int{768, 1024, 1536, 2048, 4096} {
		b.Run(benchName("ram", ramMB), func(b *testing.B) {
			vm := cloud.VM{RAMMB: ramMB, CPUMHz: 2400, BandwidthMbps: 10}
			var ms float64
			for i := 0; i < b.N; i++ {
				ms = vm.ExecMS(st)
			}
			b.ReportMetric(ms, "exec_ms")
		})
	}
}

// --- Observability (DESIGN.md §11) ---

// BenchmarkInstrumentOverhead compares a raw codec compress against the
// same compress followed by compress.ObserveCompress, the one way codec
// metrics are recorded, on the same input. Recording resolves its series
// and adds a handful of atomic operations; the acceptance target is < 5 %
// overhead on a real codec's compress path. Run both sub-benchmarks and
// compare ns/op (e.g. with benchstat).
func BenchmarkInstrumentOverhead(b *testing.B) {
	benchObserveCompress(b, "dnax", ablateSeq())
}

// BenchmarkInstrumentWrapperFloor isolates the recording's own cost with a
// near-free codec (twobit packing), the worst case for relative overhead:
// if even here the delta is small, real codecs cannot notice it.
func BenchmarkInstrumentWrapperFloor(b *testing.B) {
	benchObserveCompress(b, "twobit", ablateSeq()[:4096])
}

// benchObserveCompress times the named codec's Compress of src, raw and
// then with its metrics recorded into a fresh registry.
func benchObserveCompress(b *testing.B, name string, src []byte) {
	c, err := compress.New(name)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("raw", func(b *testing.B) {
		b.SetBytes(int64(len(src)))
		for i := 0; i < b.N; i++ {
			if _, _, err := c.Compress(src); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("observed", func(b *testing.B) {
		reg := obs.NewRegistry()
		b.SetBytes(int64(len(src)))
		for i := 0; i < b.N; i++ {
			out, st, err := c.Compress(src)
			compress.ObserveCompress(reg, name, len(src), len(out), st, err)
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

func benchName(prefix string, v int) string {
	return prefix + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkAblationEq1Normalization implements the paper's future-work item
// "improve the Eq. 1": with raw-magnitude scoring, a 50:50 RAM:TIME weight
// collapses toward the noisy RAM ordering and its accuracy; with per-row
// min-max normalization, the same weight behaves like a genuine trade-off
// and the trained model's accuracy recovers toward the time model's.
func BenchmarkAblationEq1Normalization(b *testing.B) {
	g := benchGrid(b)
	train, test := g.Split()
	w := core.RAMTimeWeights(0.5, 0.5)
	var rawAcc, normAcc float64
	for i := 0; i < b.N; i++ {
		_, acc, err := experiment.TrainEval(train, test, experiment.MethodCART, w, dtree.Config{})
		if err != nil {
			b.Fatal(err)
		}
		rawAcc = acc
		tree, err := dtree.TrainCART(train.DatasetNormalized(w), dtree.Config{})
		if err != nil {
			b.Fatal(err)
		}
		normAcc = dtree.Accuracy(tree, test.DatasetNormalized(w))
	}
	b.ReportMetric(rawAcc, "raw_acc")
	b.ReportMetric(normAcc, "norm_acc")
}
