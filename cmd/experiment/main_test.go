package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"github.com/srl-nuces/ctxdna/internal/experiment"
	"github.com/srl-nuces/ctxdna/internal/obs"
)

func TestRunWritesReadableGrid(t *testing.T) {
	out := filepath.Join(t.TempDir(), "grid.csv")
	if err := run(runConfig{nFiles: 6, minKB: 2, maxKB: 16, seed: 7, out: out, jobs: 1}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, err := experiment.ReadCSV(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Files) != 6 || len(g.Contexts) != 32 || len(g.Codecs) != 4 {
		t.Fatalf("grid shape %d files %d contexts %d codecs", len(g.Files), len(g.Contexts), len(g.Codecs))
	}
	if len(g.Rows) != 6*32 {
		t.Fatalf("%d rows", len(g.Rows))
	}
}

func TestRunBadOutputPath(t *testing.T) {
	out := filepath.Join(t.TempDir(), "no", "such", "dir", "g.csv")
	if err := run(runConfig{nFiles: 2, minKB: 2, maxKB: 4, seed: 7, out: out, jobs: 2}); err == nil {
		t.Fatal("unwritable output accepted")
	}
}

// TestRunJobsDeterministic: the CLI produces byte-identical CSVs regardless
// of worker count.
func TestRunJobsDeterministic(t *testing.T) {
	dir := t.TempDir()
	seqOut := filepath.Join(dir, "seq.csv")
	parOut := filepath.Join(dir, "par.csv")
	if err := run(runConfig{nFiles: 4, minKB: 2, maxKB: 8, seed: 9, out: seqOut, jobs: 1}); err != nil {
		t.Fatal(err)
	}
	if err := run(runConfig{nFiles: 4, minKB: 2, maxKB: 8, seed: 9, out: parOut, jobs: 4}); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(seqOut)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(parOut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("jobs=1 and jobs=4 CSVs differ (%d vs %d bytes)", len(a), len(b))
	}
}

// TestRunObservabilityExports: the built binary's -metrics and -trace
// flags write well-formed snapshots covering codec, cache and grid series
// — and attaching them leaves the grid CSV byte-identical to a plain run
// (the acceptance regression at the CLI level).
func TestRunObservabilityExports(t *testing.T) {
	dir := t.TempDir()
	plain := filepath.Join(dir, "plain.csv")
	observed := filepath.Join(dir, "observed.csv")
	metrics := filepath.Join(dir, "metrics.prom")
	trace := filepath.Join(dir, "trace.json")

	if err := run(runConfig{nFiles: 4, minKB: 2, maxKB: 8, seed: 9, out: plain, jobs: 2}); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(buildCLI(t),
		"-files", "4", "-min-kb", "2", "-max-kb", "8", "-seed", "9", "-out", observed, "-jobs", "2",
		"-fault-rate", "0.3", "-retries", "8",
		"-metrics", metrics, "-trace", trace)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("experiment with -metrics/-trace: %v\n%s", err, out)
	}

	a, _ := os.ReadFile(plain)
	b, _ := os.ReadFile(observed)
	if !bytes.Equal(a, b) {
		t.Fatal("grid CSV changed with -metrics/-trace enabled")
	}

	prom, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	text := string(prom)
	for _, want := range []string{
		"# TYPE dna_codec_calls_total counter",
		`dna_codec_calls_total{codec="dnax",op="compress"}`,
		"dna_cache_misses_total",
		"dna_grid_tasks_total",
		"dna_grid_tasks_done_total",
		"dna_grid_workers",
		"dna_exchange_total",
		"dna_exchange_attempts_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics snapshot missing %q", want)
		}
	}

	raw, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []obs.SpanRecord `json:"spans"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	names := make(map[string]int)
	for _, s := range doc.Spans {
		names[s.Name]++
	}
	for _, want := range []string{"experiment.corpus", "experiment.grid", "experiment.chaos", "cloud.exchange", "exchange.put", "exchange.get"} {
		if names[want] == 0 {
			t.Errorf("trace missing span %q (got %v)", want, names)
		}
	}
}

// TestRunChaosExchange: with a 30 % fault rate and the default retry budget
// every corpus blob must round-trip (Exchange verifies bytes internally),
// and the grid CSV is unaffected by the chaos pass.
func TestRunChaosExchange(t *testing.T) {
	dir := t.TempDir()
	plain := filepath.Join(dir, "plain.csv")
	chaos := filepath.Join(dir, "chaos.csv")
	if err := run(runConfig{nFiles: 4, minKB: 2, maxKB: 8, seed: 7, out: plain, jobs: 2}); err != nil {
		t.Fatal(err)
	}
	if err := run(runConfig{nFiles: 4, minKB: 2, maxKB: 8, seed: 7, out: chaos, jobs: 2, faultRate: 0.3, retries: 8, partial: true}); err != nil {
		t.Fatal(err)
	}
	a, _ := os.ReadFile(plain)
	b, _ := os.ReadFile(chaos)
	if !bytes.Equal(a, b) {
		t.Fatal("chaos exchange pass changed the measurement CSV")
	}
}
