package experiment

import (
	"sort"
	"testing"

	"github.com/srl-nuces/ctxdna/internal/cloud"
	"github.com/srl-nuces/ctxdna/internal/core"
	"github.com/srl-nuces/ctxdna/internal/synth"

	_ "github.com/srl-nuces/ctxdna/internal/compress/ctw"
	_ "github.com/srl-nuces/ctxdna/internal/compress/dnax"
	_ "github.com/srl-nuces/ctxdna/internal/compress/gencompress"
	_ "github.com/srl-nuces/ctxdna/internal/compress/gzipx"
)

// paperCodecs is the grid codec order used throughout.
var paperCodecs = []string{"ctw", "dnax", "gencompress", "gzip"}

// smallGrid builds a compact grid for tests: 28 files spanning 2–256 KB.
func smallGrid(t testing.TB) *Grid {
	t.Helper()
	files := synth.ExperimentCorpus(synth.CorpusSpec{NumFiles: 28, MinSize: 2 << 10, MaxSize: 256 << 10, Seed: 7})
	g, err := Run(files, cloud.Grid(), paperCodecs, DefaultNoise())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// WinnerBySize returns (sizeKB, winner) pairs for one representative
// context, sorted by size — the calibration view of the label crossovers.
func (g *Grid) WinnerBySize(w core.Weights, vmName string) []SizeWinner {
	var out []SizeWinner
	labels := g.Labels(w)
	for i, row := range g.Rows {
		if row.VM.Name != vmName {
			continue
		}
		out = append(out, SizeWinner{SizeKB: float64(row.FileBases) / 1024, Winner: labels[i]})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].SizeKB < out[b].SizeKB })
	return out
}

// SizeWinner pairs a file size with the winning codec in one context.
type SizeWinner struct {
	SizeKB float64
	Winner string
}

// TestWinnerCrossovers verifies the paper's headline decision structure on
// the equal-weight time objective: GenCompress wins the smallest files, a
// CTW band follows, DNAX wins everything large, and Gzip never wins.
func TestWinnerCrossovers(t *testing.T) {
	g := smallGrid(t)
	w := core.TimeOnlyWeights()

	counts := g.LabelCounts(w)
	t.Logf("label counts (time-only): %v", counts)
	if counts["gzip"] != 0 {
		t.Errorf("gzip won %d rows; the paper found none", counts["gzip"])
	}
	for _, name := range []string{"dnax", "gencompress", "ctw"} {
		if counts[name] == 0 {
			t.Errorf("%s never wins; the paper's rules need all three regimes", name)
		}
	}

	// In a mid-range context, winners must progress gencompress → ctw →
	// dnax with increasing size.
	vm := cloud.Grid()[len(cloud.Grid())/2]
	series := g.WinnerBySize(w, vm.Name)
	if len(series) == 0 {
		t.Fatal("no rows for calibration VM")
	}
	var log []string
	for _, sw := range series {
		log = append(log, sw.Winner)
	}
	t.Logf("context %s winners by size: %v", vm.Name, log)
	// Smallest file must go to gencompress, largest to dnax.
	if series[0].Winner != "gencompress" {
		t.Errorf("smallest file (%.0f KB) won by %s, want gencompress", series[0].SizeKB, series[0].Winner)
	}
	last := series[len(series)-1]
	if last.Winner != "dnax" {
		t.Errorf("largest file (%.0f KB) won by %s, want dnax", last.SizeKB, last.Winner)
	}
	// DNAX must dominate above 64 KB.
	for _, sw := range series {
		if sw.SizeKB > 80 && sw.Winner != "dnax" {
			t.Errorf("%.0f KB won by %s, want dnax above 80 KB", sw.SizeKB, sw.Winner)
		}
	}
	// CTW must take at least one mid-band file in this context.
	foundCTW := false
	for _, sw := range series {
		if sw.Winner == "ctw" {
			foundCTW = true
			if sw.SizeKB < 6 || sw.SizeKB > 80 {
				t.Errorf("ctw won at %.0f KB, outside the expected 6-80 KB band", sw.SizeKB)
			}
		}
	}
	if !foundCTW {
		t.Error("ctw never won in the calibration context")
	}
}
