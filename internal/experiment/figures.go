package experiment

import (
	"fmt"
	"sort"

	"github.com/srl-nuces/ctxdna/internal/core"
	"github.com/srl-nuces/ctxdna/internal/dtree"
	"github.com/srl-nuces/ctxdna/internal/stats"
)

// Series is one labeled line of a figure: parallel X/Y vectors.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// CodecSummary is one codec's line of Figures 2, 3, 5 and 6: the mean,
// median, min and max of one measurement over the grid rows.
type CodecSummary struct {
	Codec                  string
	Mean, Median, Min, Max float64
}

// SummarizeByCodec computes Figures 2, 3, 5 and 6: per codec, in grid
// order, the spread of value over every (file × context) row. The values
// are sorted before they are averaged, so the mean does not depend on the
// row order.
func (g *Grid) SummarizeByCodec(value func(core.Measurement) float64) []CodecSummary {
	out := make([]CodecSummary, len(g.Codecs))
	vals := make([]float64, len(g.Rows))
	for ci, codec := range g.Codecs {
		for ri, row := range g.Rows {
			vals[ri] = value(row.Measurements[ci])
		}
		sort.Float64s(vals)
		out[ci] = CodecSummary{Codec: codec, Mean: stats.Mean(vals), Median: stats.Median(vals),
			Min: vals[0], Max: vals[len(vals)-1]}
	}
	return out
}

// MeanBitsPerBase computes Figure 4: per codec, in grid order, the mean
// compressed bits per base over the grid's files. The context does not
// change a file's compressed size, exactly as the paper observes, so each
// file counts once, at its first row in row order.
func (g *Grid) MeanBitsPerBase() []float64 {
	out := make([]float64, len(g.Codecs))
	seen := map[string]bool{}
	for _, row := range g.Rows {
		if seen[row.FileName] {
			continue
		}
		seen[row.FileName] = true
		for ci := range out {
			out[ci] += float64(row.Measurements[ci].CompressedBytes*8) / float64(row.FileBases)
		}
	}
	for ci := range out {
		out[ci] /= float64(len(seen))
	}
	return out
}

// FigFileSizeByRow regenerates Figure 8: file size against row id for the
// (test) grid, rows sorted the way the paper plots them (by file then
// context).
func (g *Grid) FigFileSizeByRow() Series {
	s := Series{Name: "file_size_bytes"}
	for ri, row := range g.Rows {
		s.X = append(s.X, float64(ri))
		s.Y = append(s.Y, float64(row.FileBases))
	}
	return s
}

// Validation is the material behind Figures 9-16: per-test-row predicted vs
// actual labels plus the normalized context series of the analysis charts.
type Validation struct {
	Method    string
	Tree      *dtree.Tree
	Rows      []Row
	Actual    []string
	Predicted []string
	Match     []bool
	Accuracy  float64
}

// Validate trains on the training grid and evaluates each test row,
// returning the full per-row trace.
func Validate(train, test *Grid, method string, w core.Weights, cfg dtree.Config) (*Validation, error) {
	tree, _, err := TrainEval(train, test, method, w, cfg)
	if err != nil {
		return nil, err
	}
	v := &Validation{Method: method, Tree: tree}
	labels := test.Labels(w)
	hits := 0
	for i, row := range test.Rows {
		pred := tree.PredictName(row.Context().Features())
		v.Rows = append(v.Rows, row)
		v.Actual = append(v.Actual, labels[i])
		v.Predicted = append(v.Predicted, pred)
		ok := pred == labels[i]
		v.Match = append(v.Match, ok)
		if ok {
			hits++
		}
	}
	if len(test.Rows) > 0 {
		v.Accuracy = float64(hits) / float64(len(test.Rows))
	}
	return v, nil
}

// AnalysisSeries renders the paper's Figures 10/12/14/16: normalized CPU,
// total RAM and file size per test row, plus the result line (+1 matched,
// -1 mismatched), truncated to the first n rows as the paper plots ~86-88.
func (v *Validation) AnalysisSeries(n int) []Series {
	if n <= 0 || n > len(v.Rows) {
		n = len(v.Rows)
	}
	cpu := make([]float64, n)
	ram := make([]float64, n)
	size := make([]float64, n)
	result := make([]float64, n)
	for i := 0; i < n; i++ {
		ctx := v.Rows[i].Context()
		cpu[i] = ctx.CPUMHz
		ram[i] = ctx.RAMMB
		size[i] = ctx.FileSizeKB
		if v.Match[i] {
			result[i] = 1
		} else {
			result[i] = -1
		}
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i)
	}
	return []Series{
		{Name: "cpu_norm", X: x, Y: stats.Normalize(cpu)},
		{Name: "ram_norm", X: x, Y: stats.Normalize(ram)},
		{Name: "file_norm", X: x, Y: stats.Normalize(size)},
		{Name: "result", X: x, Y: result},
	}
}

// GapsBelow reports how many mismatches fall below the given file size
// (KB) — the paper's reading of the CHAID gaps ("when the file is less than
// 50kb ... the rules could not be validated").
func (v *Validation) GapsBelow(sizeKB float64) (below, total int) {
	for i, row := range v.Rows {
		if !v.Match[i] {
			total++
			if float64(row.FileBases)/1024 < sizeKB {
				below++
			}
		}
	}
	return below, total
}

// Table2Row is one line of the paper's Table 2.
type Table2Row struct {
	Method   string // "CART" or "CHAID"
	Weight   string // e.g. "100", "60:40"
	Var1     string
	Var2     string
	Var3     string
	Accuracy float64 // fraction in [0,1]
}

// table2Combos enumerates the paper's weight/variable combinations.
func table2Combos() []struct {
	Weight           string
	Var1, Var2, Var3 string
	W                core.Weights
} {
	type combo = struct {
		Weight           string
		Var1, Var2, Var3 string
		W                core.Weights
	}
	var out []combo
	out = append(out,
		combo{"100", "RAM", "N/A", "N/A", core.RAMOnlyWeights()},
		combo{"100", "TIME", "N/A", "N/A", core.TimeOnlyWeights()},
		combo{"100", "CompressionTime", "N/A", "N/A", core.CompressTimeOnlyWeights()},
	)
	for _, rt := range [][2]float64{{60, 40}, {40, 60}, {70, 30}, {30, 70}, {80, 20}, {20, 80}, {90, 10}, {10, 90}} {
		out = append(out, combo{
			Weight: fmt.Sprintf("%g:%g", rt[0], rt[1]),
			Var1:   "RAM", Var2: "TIME", Var3: "N/A",
			W: core.RAMTimeWeights(rt[0]/100, rt[1]/100),
		})
	}
	out = append(out, combo{
		Weight: "50:50", Var1: "RAM", Var2: "CompressionTime", Var3: "N/A",
		W: core.Weights{RAM: 0.5, CompressTime: 0.5},
	})
	for _, rcu := range [][3]float64{{33, 33, 33}, {20, 40, 40}, {40, 40, 20}, {40, 50, 10}} {
		out = append(out, combo{
			Weight: fmt.Sprintf("%g:%g:%g", rcu[0], rcu[1], rcu[2]),
			Var1:   "RAM", Var2: "CompressionTime", Var3: "UploadTime",
			W: core.Weights{RAM: rcu[0] / 100, CompressTime: rcu[1] / 100, UploadTime: rcu[2] / 100},
		})
	}
	return out
}

// Table2 reproduces the paper's Table 2: every weight combination × both
// induction methods, reporting validation accuracy.
func Table2(train, test *Grid, cfg dtree.Config) ([]Table2Row, error) {
	var out []Table2Row
	for _, c := range table2Combos() {
		for _, method := range []string{MethodCART, MethodCHAID} {
			_, acc, err := TrainEval(train, test, method, c.W, cfg)
			if err != nil {
				return nil, fmt.Errorf("experiment: table2 %s %s: %w", method, c.Weight, err)
			}
			name := "CART"
			if method == MethodCHAID {
				name = "CHAID"
			}
			out = append(out, Table2Row{
				Method: name, Weight: c.Weight,
				Var1: c.Var1, Var2: c.Var2, Var3: c.Var3,
				Accuracy: acc,
			})
		}
	}
	return out, nil
}

// Table2Lookup finds the accuracy for a method and variable signature.
func Table2Lookup(rows []Table2Row, method, weight, var1 string) (float64, bool) {
	for _, r := range rows {
		if r.Method == method && r.Weight == weight && r.Var1 == var1 {
			return r.Accuracy, true
		}
	}
	return 0, false
}

// SortRowsBySize orders the grid rows by file size then context, the layout
// of the paper's Figure 8.
func (g *Grid) SortRowsBySize() {
	sort.SliceStable(g.Rows, func(a, b int) bool {
		if g.Rows[a].FileBases != g.Rows[b].FileBases {
			return g.Rows[a].FileBases < g.Rows[b].FileBases
		}
		return g.Rows[a].VM.Name < g.Rows[b].VM.Name
	})
}
