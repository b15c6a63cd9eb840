// Command figures regenerates every table and figure of the paper's
// evaluation from a grid CSV produced by cmd/experiment:
//
//	figures -grid grid.csv -fig 2     # upload time per codec (Figure 2)
//	figures -grid grid.csv -fig 9     # CHAID time validation (Figure 9)
//	figures -grid grid.csv -table 2   # the accuracy sweep (Table 2)
//	figures -grid grid.csv -all       # everything
//
// Output is textual: per-codec summary tables plus coarse ASCII series —
// enough to read off who wins, by what factor, and where the crossovers sit.
//
// When the grid CSV does not exist yet, figures builds it in-process with
// the parallel experiment pipeline (-jobs workers, content-hash result
// cache) and persists it to the -grid path, so `figures -all` is a
// one-command pipeline on a fresh checkout.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"github.com/srl-nuces/ctxdna/internal/cloud"
	"github.com/srl-nuces/ctxdna/internal/compress"
	"github.com/srl-nuces/ctxdna/internal/core"
	"github.com/srl-nuces/ctxdna/internal/dtree"
	"github.com/srl-nuces/ctxdna/internal/experiment"
	"github.com/srl-nuces/ctxdna/internal/synth"

	_ "github.com/srl-nuces/ctxdna/internal/compress/ctw"
	_ "github.com/srl-nuces/ctxdna/internal/compress/dnax"
	_ "github.com/srl-nuces/ctxdna/internal/compress/gencompress"
	_ "github.com/srl-nuces/ctxdna/internal/compress/gzipx"
)

// genSpec configures the in-process grid build used when -grid is missing.
type genSpec struct {
	files, minKB, maxKB int
	seed                int64
}

func main() {
	var (
		gridPath = flag.String("grid", "grid.csv", "grid CSV from cmd/experiment (generated here when missing)")
		fig      = flag.Int("fig", 0, "figure number to regenerate (2-6, 8-16)")
		table    = flag.Int("table", 0, "table number to regenerate (1 or 2)")
		all      = flag.Bool("all", false, "regenerate everything")
		jobs     = flag.Int("jobs", runtime.GOMAXPROCS(0), "parallel workers when generating a missing grid")
		genFiles = flag.Int("gen-files", 48, "corpus files when generating a missing grid")
		genMin   = flag.Int("gen-min-kb", 2, "smallest generated file in KB")
		genMax   = flag.Int("gen-max-kb", 256, "largest generated file in KB")
		genSeed  = flag.Int64("gen-seed", 2015, "corpus seed when generating a missing grid")
	)
	flag.Parse()
	gen := genSpec{files: *genFiles, minKB: *genMin, maxKB: *genMax, seed: *genSeed}
	if err := run(*gridPath, *fig, *table, *all, *jobs, gen); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func run(gridPath string, fig, table int, all bool, jobs int, gen genSpec) error {
	g, err := loadGrid(gridPath, jobs, gen)
	if err != nil {
		return err
	}
	g.SortRowsBySize()

	if all {
		for _, n := range []int{2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14, 15, 16} {
			if err := renderFigure(g, n); err != nil {
				return err
			}
		}
		return renderTable(g, 2)
	}
	if fig > 0 {
		return renderFigure(g, fig)
	}
	if table > 0 {
		return renderTable(g, table)
	}
	return fmt.Errorf("pass -fig N, -table N or -all")
}

// loadGrid reads the grid CSV, or — when the file does not exist — builds
// the grid in-process with the parallel pipeline and persists it for reuse.
func loadGrid(gridPath string, jobs int, gen genSpec) (*experiment.Grid, error) {
	f, err := os.Open(gridPath)
	if err == nil {
		defer f.Close()
		return experiment.ReadCSV(f)
	}
	if !os.IsNotExist(err) {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "figures: %s missing, generating %d files (%d..%d KB, seed %d, jobs=%d)\n",
		gridPath, gen.files, gen.minKB, gen.maxKB, gen.seed, jobs)
	files := synth.ExperimentCorpus(synth.CorpusSpec{
		NumFiles: gen.files, MinSize: gen.minKB << 10, MaxSize: gen.maxKB << 10, Seed: gen.seed,
	})
	codecs := []string{"ctw", "dnax", "gencompress", "gzip"}
	g, _, err := experiment.RunGrid(context.Background(), files, cloud.Grid(), codecs, experiment.DefaultNoise(),
		experiment.RunConfig{Jobs: jobs, Cache: compress.NewCache()})
	if err != nil {
		return nil, err
	}
	out, err := os.Create(gridPath)
	if err != nil {
		return nil, err
	}
	defer out.Close()
	if err := g.WriteCSV(out); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "figures: wrote %s for reuse\n", gridPath)
	return g, nil
}

func renderFigure(g *experiment.Grid, n int) error {
	switch n {
	case 2:
		printSummary("Figure 2 — upload time (ms)", g.SummarizeByCodec(func(m core.Measurement) float64 { return m.UploadMS }))
	case 3:
		printSummary("Figure 3 — RAM used (MB)", g.SummarizeByCodec(func(m core.Measurement) float64 { return float64(m.RAMBytes) / (1 << 20) }))
	case 4:
		ratioTable(g)
	case 5:
		printSummary("Figure 5 — compression time (ms)", g.SummarizeByCodec(func(m core.Measurement) float64 { return m.CompressMS }))
	case 6:
		printSummary("Figure 6 — download time (ms)", g.SummarizeByCodec(func(m core.Measurement) float64 { return m.DownloadMS }))
	case 8:
		fig8(g)
	case 9, 10:
		return validation(g, experiment.MethodCHAID, core.TimeOnlyWeights(), "Figures 9/10 — CHAID, time labels", n == 10)
	case 11, 12:
		return validation(g, experiment.MethodCART, core.TimeOnlyWeights(), "Figures 11/12 — CART, time labels", n == 12)
	case 13, 14:
		return validation(g, experiment.MethodCHAID, core.RAMOnlyWeights(), "Figures 13/14 — CHAID, RAM labels", n == 14)
	case 15, 16:
		return validation(g, experiment.MethodCART, core.RAMOnlyWeights(), "Figures 15/16 — CART, RAM labels", n == 16)
	default:
		return fmt.Errorf("unknown figure %d", n)
	}
	return nil
}

// printSummary prints one of Figures 2, 3, 5 and 6: each codec's mean,
// median, min and max over the grid rows.
func printSummary(title string, rows []experiment.CodecSummary) {
	fmt.Printf("\n%s\n%s\n", title, strings.Repeat("-", len(title)))
	fmt.Printf("%-12s %10s %10s %10s %10s\n", "codec", "mean", "median", "min", "max")
	for _, r := range rows {
		fmt.Printf("%-12s %10.1f %10.1f %10.1f %10.1f\n", r.Codec, r.Mean, r.Median, r.Min, r.Max)
	}
}

func ratioTable(g *experiment.Grid) {
	title := "Figure 4 — compressed size (bits/base, context-invariant)"
	fmt.Printf("\n%s\n%s\n", title, strings.Repeat("-", len(title)))
	fmt.Printf("%-12s %10s\n", "codec", "mean bpb")
	for ci, bpb := range g.MeanBitsPerBase() {
		fmt.Printf("%-12s %10.3f\n", g.Codecs[ci], bpb)
	}
}

func fig8(g *experiment.Grid) {
	title := "Figure 8 — file size vs row id (sorted)"
	fmt.Printf("\n%s\n%s\n", title, strings.Repeat("-", len(title)))
	s := g.FigFileSizeByRow()
	step := len(s.Y) / 16
	if step == 0 {
		step = 1
	}
	for i := 0; i < len(s.Y); i += step {
		kb := s.Y[i] / 1024
		bar := int(kb / 8)
		if bar > 64 {
			bar = 64
		}
		fmt.Printf("row %5d %8.0f KB %s\n", i, kb, strings.Repeat("#", bar))
	}
}

func validation(g *experiment.Grid, method string, w core.Weights, title string, analysis bool) error {
	train, test := g.Split()
	v, err := experiment.Validate(train, test, method, w, dtree.Config{})
	if err != nil {
		return err
	}
	fmt.Printf("\n%s\n%s\n", title, strings.Repeat("-", len(title)))
	fmt.Printf("Accuracy = Cases Matched/TotalCases = %.4f (%d test rows)\n", v.Accuracy, len(v.Rows))
	below, total := v.GapsBelow(50)
	fmt.Printf("gaps (mismatches): %d total, %d below 50 KB\n", total, below)
	if analysis {
		series := v.AnalysisSeries(88)
		fmt.Println("first 88 rows, normalized context + result (+ matched / - mismatched):")
		for i := 0; i < len(series[0].Y); i += 4 {
			mark := "+"
			if series[3].Y[i] < 0 {
				mark = "-"
			}
			fmt.Printf("row %3d  cpu %.2f  ram %.2f  file %.2f  %s\n",
				i, series[0].Y[i], series[1].Y[i], series[2].Y[i], mark)
		}
		return nil
	}
	// Figure 9-style: matched rows keep the label, mismatches show a gap.
	fmt.Println("validation trace (.=match, X=gap), rows in size order:")
	var sb strings.Builder
	for i := range v.Match {
		if v.Match[i] {
			sb.WriteByte('.')
		} else {
			sb.WriteByte('X')
		}
		if (i+1)%96 == 0 {
			sb.WriteByte('\n')
		}
	}
	fmt.Println(sb.String())
	return nil
}

func renderTable(g *experiment.Grid, n int) error {
	switch n {
	case 1:
		fmt.Println(table1)
		return nil
	case 2:
		train, test := g.Split()
		rows, err := experiment.Table2(train, test, dtree.Config{})
		if err != nil {
			return err
		}
		title := "Table 2 — Accuracy of generated Rules"
		fmt.Printf("\n%s\n%s\n", title, strings.Repeat("-", len(title)))
		fmt.Printf("%-6s %-9s %-16s %-16s %-12s %8s\n", "Method", "Weight", "Var1", "Var2", "Var3", "Accuracy")
		for _, r := range rows {
			fmt.Printf("%-6s %-9s %-16s %-16s %-12s %8.2f\n",
				r.Method, r.Weight, r.Var1, r.Var2, r.Var3, 100*r.Accuracy)
		}
		return nil
	default:
		return fmt.Errorf("unknown table %d", n)
	}
}

// table1 is descriptive: the algorithm taxonomy of the paper's Table 1 with
// the rows this repository implements marked.
const table1 = `
Table 1 — Algorithms: encoding techniques and methodology
----------------------------------------------------------
BioCompress[2]* exact + reverse-complement repeats; Fibonacci-coded
                descriptors; order-2 arithmetic literals
                -> internal/compress/biocompress
Cfact           two-pass suffix-tree repeats, LZ descriptors (not implemented)
GenCompress*    approximate repeats via edit distance (GenCompress-1 Hamming /
                GenCompress-2 edit); order-2 arithmetic escape
                -> internal/compress/gencompress
DNACompress*    PatternHunter spaced-seed approximate repeats
                -> internal/compress/dnacompress (seeds in internal/match)
DNAC            four-phase suffix-tree + Fibonacci (not implemented)
DNAPack*        dynamic-programming parse + Hamming repeats + order-2
                literals -> internal/compress/dnapack (2-bit baseline ->
                internal/compress/twobit)
CTW(+LZ)*       context-tree weighting over the base bitstream
                -> internal/compress/ctw
DNAX*           exact + reverse-complement repeats, block fingerprints,
                order-2 arithmetic literals -> internal/compress/dnax
XM*             expert-model statistics (Markov + copy experts, Bayesian
                averaging) -> internal/compress/xm
Gzip*           LZ77 + Huffman over ASCII (managed GZipStream emulation)
                -> internal/compress/gzipx
(* = implemented and part of the experiment grid or extensions)`
