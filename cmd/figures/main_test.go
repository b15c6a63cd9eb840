package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/srl-nuces/ctxdna/internal/cloud"
	"github.com/srl-nuces/ctxdna/internal/core"
	"github.com/srl-nuces/ctxdna/internal/experiment"
	"github.com/srl-nuces/ctxdna/internal/synth"
)

// testGen is a tiny generation spec for tests that hit the missing-grid path.
var testGen = genSpec{files: 3, minKB: 2, maxKB: 4, seed: 3}

// writeGrid builds a compact grid CSV for CLI tests.
func writeGrid(t *testing.T) string {
	t.Helper()
	files := synth.ExperimentCorpus(synth.CorpusSpec{NumFiles: 12, MinSize: 2 << 10, MaxSize: 64 << 10, Seed: 3})
	g, err := experiment.Run(files, cloud.Grid(), []string{"ctw", "dnax", "gencompress", "gzip"}, experiment.DefaultNoise())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "grid.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := g.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRenderEveryFigure(t *testing.T) {
	grid := writeGrid(t)
	// Silence stdout during rendering.
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	defer func() { os.Stdout = old; devnull.Close() }()

	for _, fig := range []int{2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14, 15, 16} {
		if err := run(grid, fig, 0, false, 1, testGen); err != nil {
			t.Errorf("fig %d: %v", fig, err)
		}
	}
	for _, table := range []int{1, 2} {
		if err := run(grid, 0, table, false, 1, testGen); err != nil {
			t.Errorf("table %d: %v", table, err)
		}
	}
	if err := run(grid, 0, 0, true, 1, testGen); err != nil {
		t.Errorf("-all: %v", err)
	}
}

// smallFigureGrid is a 4-file, two-codec grid over every context.
func smallFigureGrid(t *testing.T) *experiment.Grid {
	t.Helper()
	files := synth.ExperimentCorpus(synth.CorpusSpec{NumFiles: 4, MinSize: 2 << 10, MaxSize: 8 << 10, Seed: 3})
	g, err := experiment.Run(files, cloud.Grid(), []string{"dnax", "gzip"}, experiment.DefaultNoise())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// renderCaptured renders figure n of g and returns what it printed, after
// checking that the figure's title appears once.
func renderCaptured(t *testing.T, g *experiment.Grid, n int) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	rerr := renderFigure(g, n)
	os.Stdout = old
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil || rerr != nil {
		t.Fatalf("render: %v, read: %v", rerr, err)
	}
	if c := strings.Count(string(out), fmt.Sprintf("Figure %d ", n)); c != 1 {
		t.Errorf("Figure %d title printed %d times:\n%s", n, c, out)
	}
	return string(out)
}

// TestFigureSummaryTables: Figures 2, 3, 5 and 6 print, per codec, the
// mean, median, min and max of their measurement over every grid row.
func TestFigureSummaryTables(t *testing.T) {
	g := smallFigureGrid(t)
	for fig, value := range map[int]func(core.Measurement) float64{
		2: func(m core.Measurement) float64 { return m.UploadMS },
		3: func(m core.Measurement) float64 { return float64(m.RAMBytes) / (1 << 20) },
		5: func(m core.Measurement) float64 { return m.CompressMS },
		6: func(m core.Measurement) float64 { return m.DownloadMS },
	} {
		out := renderCaptured(t, g, fig)
		for ci, codec := range g.Codecs {
			var vals []float64
			for _, row := range g.Rows {
				vals = append(vals, value(row.Measurements[ci]))
			}
			sort.Float64s(vals)
			var sum float64
			for _, v := range vals {
				sum += v
			}
			n := len(vals)
			median := vals[n/2]
			if n%2 == 0 {
				median = (vals[n/2-1] + vals[n/2]) / 2
			}
			line := fmt.Sprintf("%-12s %10.1f %10.1f %10.1f %10.1f\n", codec, sum/float64(n), median, vals[0], vals[n-1])
			if !strings.Contains(out, line) {
				t.Errorf("Figure %d: missing row %q in:\n%s", fig, line, out)
			}
		}
	}
}

// TestFigure4RatioTable: Figure 4 prints its title once and, per codec,
// the mean bits/base over the corpus files.
func TestFigure4RatioTable(t *testing.T) {
	g := smallFigureGrid(t)
	out := renderCaptured(t, g, 4)
	for _, codec := range g.Codecs {
		var sum float64
		for _, f := range g.Files {
			for _, run := range f.Runs {
				if run.Codec == codec {
					sum += float64(run.CompressedSize*8) / float64(f.Bases)
				}
			}
		}
		if line := fmt.Sprintf("%-12s %10.3f\n", codec, sum/float64(len(g.Files))); !strings.Contains(out, line) {
			t.Errorf("missing row %q in:\n%s", line, out)
		}
	}
}

func TestRenderErrors(t *testing.T) {
	grid := writeGrid(t)
	old := os.Stdout
	devnull, _ := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	os.Stdout = devnull
	defer func() { os.Stdout = old; devnull.Close() }()

	if err := run(grid, 99, 0, false, 1, testGen); err == nil {
		t.Error("unknown figure accepted")
	}
	if err := run(grid, 0, 9, false, 1, testGen); err == nil {
		t.Error("unknown table accepted")
	}
	if err := run(grid, 0, 0, false, 1, testGen); err == nil {
		t.Error("no selection accepted")
	}
	// A missing grid in an unwritable location cannot be generated-and-saved.
	if err := run(filepath.Join(t.TempDir(), "no", "such", "dir", "missing.csv"), 2, 0, false, 1, testGen); err == nil {
		t.Error("unwritable grid path accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.csv")
	os.WriteFile(bad, []byte("not,a,grid\n1,2,3\n"), 0o644)
	if err := run(bad, 2, 0, false, 1, testGen); err == nil {
		t.Error("malformed grid accepted")
	}
}

// TestGenerateMissingGrid: with no CSV on disk, figures builds the grid
// in-process through the parallel pipeline, persists it, and renders.
func TestGenerateMissingGrid(t *testing.T) {
	old := os.Stdout
	devnull, _ := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	os.Stdout = devnull
	defer func() { os.Stdout = old; devnull.Close() }()

	gridPath := filepath.Join(t.TempDir(), "fresh.csv")
	if err := run(gridPath, 2, 0, false, 2, testGen); err != nil {
		t.Fatalf("generate+render: %v", err)
	}
	f, err := os.Open(gridPath)
	if err != nil {
		t.Fatalf("generated grid not persisted: %v", err)
	}
	defer f.Close()
	g, err := experiment.ReadCSV(f)
	if err != nil {
		t.Fatalf("persisted grid unreadable: %v", err)
	}
	if len(g.Files) != testGen.files || len(g.Contexts) != len(cloud.Grid()) {
		t.Fatalf("generated grid shape: %d files, %d contexts", len(g.Files), len(g.Contexts))
	}
	// Second invocation must read the persisted CSV, not regenerate.
	if err := run(gridPath, 0, 2, false, 1, genSpec{}); err != nil {
		t.Fatalf("re-render from persisted grid: %v", err)
	}
}
