package synth

import (
	"bytes"
	"math"
	"testing"

	"github.com/srl-nuces/ctxdna/internal/seq"
)

func TestGenerateDeterministic(t *testing.T) {
	p := Profile{Name: "x", Length: 10000, GC: 0.4, RepeatProb: 0.01, RepeatMin: 10, RepeatMax: 100, RCFraction: 0.2, MutationRate: 0.01}
	a := p.Generate(42)
	b := p.Generate(42)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different sequences")
	}
	c := p.Generate(43)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical sequences")
	}
}

func TestGenerateLengthAndAlphabet(t *testing.T) {
	for _, n := range []int{0, 1, 17, 1000, 100000} {
		p := Profile{Length: n, GC: 0.5, RepeatProb: 0.02, RepeatMin: 5, RepeatMax: 50}
		s := p.Generate(1)
		if len(s) != n {
			t.Fatalf("Length %d: got %d bases", n, len(s))
		}
		if !seq.Valid(s) {
			t.Fatalf("Length %d: invalid symbols", n)
		}
	}
}

func TestGCControl(t *testing.T) {
	for _, gc := range []float64{0.2, 0.5, 0.8} {
		p := Profile{Length: 200000, GC: gc} // no repeats: pure iid
		s := p.Generate(7)
		got := seq.GCContent(s)
		if math.Abs(got-gc) > 0.02 {
			t.Errorf("GC target %.2f: measured %.3f", gc, got)
		}
	}
}

func TestRepeatsIncreaseCompressibility(t *testing.T) {
	// A crude LZ-style proxy: count positions covered by some repeated
	// 16-mer. The repeat-rich profile must show materially more coverage.
	cover := func(s []byte) float64 {
		const k = 16
		if len(s) < k {
			return 0
		}
		seen := make(map[string]bool, len(s))
		dup := 0
		for i := 0; i+k <= len(s); i += k {
			key := string(s[i : i+k])
			if seen[key] {
				dup++
			}
			seen[key] = true
		}
		return float64(dup) / float64(len(s)/k)
	}
	flat := Profile{Length: 150000, GC: 0.4}
	rich := Profile{Length: 150000, GC: 0.4, RepeatProb: 0.03, RepeatMin: 50, RepeatMax: 800}
	cFlat := cover(flat.Generate(3))
	cRich := cover(rich.Generate(3))
	if cRich < cFlat+0.1 {
		t.Fatalf("repeat-rich coverage %.3f not above flat %.3f", cRich, cFlat)
	}
}

func TestValidate(t *testing.T) {
	bad := []Profile{
		{Length: -1},
		{GC: 1.5},
		{RepeatProb: -0.1},
		{RepeatProb: 0.5, RepeatMin: 10, RepeatMax: 5},
		{RCFraction: 2},
		{MutationRate: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, p)
		}
	}
	good := Profile{Length: 100, GC: 0.5, RepeatProb: 0.01, RepeatMin: 5, RepeatMax: 50, RCFraction: 0.3, MutationRate: 0.01}
	if err := good.Validate(); err != nil {
		t.Errorf("Validate rejected valid profile: %v", err)
	}
}

func TestGenerateASCII(t *testing.T) {
	p := Profile{Length: 100, GC: 0.5}
	a := p.GenerateASCII(5)
	if len(a) != 100 {
		t.Fatalf("got %d chars", len(a))
	}
	for _, b := range a {
		switch b {
		case 'A', 'C', 'G', 'T':
		default:
			t.Fatalf("non-ACGT output %q", b)
		}
	}
}

func TestBenchmarkCorpus(t *testing.T) {
	profs := Benchmark()
	if len(profs) != 11 {
		t.Fatalf("got %d benchmark profiles", len(profs))
	}
	names := map[string]bool{}
	for _, p := range profs {
		if err := p.Validate(); err != nil {
			t.Errorf("profile %s: %v", p.Name, err)
		}
		if names[p.Name] {
			t.Errorf("duplicate name %s", p.Name)
		}
		names[p.Name] = true
		if p.Length < 30000 || p.Length > 300000 {
			t.Errorf("profile %s length %d outside corpus range", p.Name, p.Length)
		}
	}
	// humdyst is the paper-cited small human gene; it anchors the <50 KB regime.
	if !names["humdyst"] || !names["vaccg"] {
		t.Error("missing canonical corpus members")
	}
}

// SizeBytes reports the raw (1 byte per base) size, the quantity the paper's
// file-size context variable refers to.
func (f File) SizeBytes() int { return len(f.Data) }

// DefaultCorpusSpec mirrors the paper's corpus shape scaled to CI-friendly
// sizes: 132 files log-spaced between 1 KB and 512 KB. Pass a larger MaxSize
// (up to 10 MB, the paper's cap) for full-scale runs via cmd/experiment.
func DefaultCorpusSpec() CorpusSpec {
	return CorpusSpec{NumFiles: 132, MinSize: 1 << 10, MaxSize: 512 << 10, Seed: 2015}
}

func TestExperimentCorpus(t *testing.T) {
	spec := CorpusSpec{NumFiles: 20, MinSize: 1000, MaxSize: 64000, Seed: 1}
	files := ExperimentCorpus(spec)
	if len(files) != 20 {
		t.Fatalf("got %d files", len(files))
	}
	if files[0].SizeBytes() != 1000 {
		t.Errorf("first file %d bases, want 1000", files[0].SizeBytes())
	}
	last := files[len(files)-1].SizeBytes()
	if last < 63000 || last > 65000 {
		t.Errorf("last file %d bases, want ~64000", last)
	}
	// Sizes must be non-decreasing (log-spaced).
	for i := 1; i < len(files); i++ {
		if files[i].SizeBytes() < files[i-1].SizeBytes() {
			t.Fatalf("sizes not monotone at %d", i)
		}
	}
	// Determinism across calls.
	again := ExperimentCorpus(spec)
	for i := range files {
		if !bytes.Equal(files[i].Data, again[i].Data) {
			t.Fatalf("file %d not deterministic", i)
		}
	}
}

func TestExperimentCorpusEdgeSpecs(t *testing.T) {
	if got := ExperimentCorpus(CorpusSpec{NumFiles: 0}); got != nil {
		t.Error("zero files should return nil")
	}
	one := ExperimentCorpus(CorpusSpec{NumFiles: 1, MinSize: 500, MaxSize: 100, Seed: 9})
	if len(one) != 1 || one[0].SizeBytes() != 500 {
		t.Errorf("degenerate spec mishandled: %d files, size %d", len(one), one[0].SizeBytes())
	}
}

func TestDefaultCorpusSpec(t *testing.T) {
	spec := DefaultCorpusSpec()
	if spec.NumFiles != 132 {
		t.Errorf("paper uses 132 files, spec says %d", spec.NumFiles)
	}
	if spec.MaxSize > 10<<20 {
		t.Errorf("paper caps files at 10 MB, spec max %d", spec.MaxSize)
	}
}

func BenchmarkGenerate1MB(b *testing.B) {
	p := Profile{Length: 1 << 20, GC: 0.4, RepeatProb: 0.015, RepeatMin: 20, RepeatMax: 400, RCFraction: 0.2, MutationRate: 0.01}
	b.SetBytes(1 << 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Generate(int64(i))
	}
}
