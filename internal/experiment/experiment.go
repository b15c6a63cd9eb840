// Package experiment reproduces the paper's experimental pipeline end to
// end: run every corpus file through every codec, expand the measurements
// across the 32-context grid, apply deterministic measurement noise, label
// each (file, context) row with Eq. 1, induce CHAID/CART rules on the
// training files, and validate on the held-out 25 % — producing every
// figure series and the Table 2 accuracy sweep.
package experiment

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"

	"github.com/srl-nuces/ctxdna/internal/cloud"
	"github.com/srl-nuces/ctxdna/internal/compress"
	"github.com/srl-nuces/ctxdna/internal/core"
	"github.com/srl-nuces/ctxdna/internal/dtree"
	"github.com/srl-nuces/ctxdna/internal/synth"
)

// CodecRun is one codec's context-independent result for one file: the
// compressed size and the modeled reference-core stats. Context expansion
// scales these into per-VM measurements.
type CodecRun struct {
	Codec          string
	CompressedSize int
	CompressStats  compress.Stats
	DecompStats    compress.Stats
}

// FileResult carries every codec's run for one corpus file.
type FileResult struct {
	Name  string
	Bases int
	Runs  []CodecRun
}

// Row is one (file, context) cell with fully-expanded measurements.
type Row struct {
	FileIdx      int
	FileName     string
	FileBases    int
	VM           cloud.VM
	Measurements []core.Measurement // one per surviving codec, grid order (partial builds omit failed codecs)
}

// Context returns the learning context of the row.
func (r Row) Context() core.Context {
	return core.GatherContext(r.VM, r.FileBases)
}

// Grid is the full experiment: files × contexts with per-codec measurements.
type Grid struct {
	Codecs   []string
	Files    []FileResult
	Contexts []cloud.VM
	Rows     []Row
}

// NoiseConfig controls the deterministic measurement noise that stands in
// for the paper's real-hardware variance ("sudden background processes").
type NoiseConfig struct {
	// TimeAmp is the relative half-range of multiplicative time noise
	// (0.08 = ±8 %), enough to flip labels near crossovers and keep the
	// time models at the paper's 94–96 % rather than 100 %.
	TimeAmp float64
	// RAMBaseMB / RAMAmpMB give the additive process-baseline term: the
	// paper measured whole-process RAM on Windows guests, where runtime
	// baseline and cache noise swamp the codecs' few-MB working sets —
	// the mechanism behind the ~33–36 % RAM-model accuracies.
	RAMBaseMB float64
	RAMAmpMB  float64
	// BusyCPUDoubles reproduces "when CPU usage is greater than 30% the
	// RAM usage got double": a hash-selected ~30 % of runs get their
	// measured RAM scaled up.
	BusyCPUDoubles bool
	// Seed decorrelates reruns.
	Seed uint64
}

// DefaultNoise returns the calibrated noise configuration.
func DefaultNoise() NoiseConfig {
	return NoiseConfig{TimeAmp: 0.08, RAMBaseMB: 20, RAMAmpMB: 28, BusyCPUDoubles: true, Seed: 2015}
}

// hashUnit returns a deterministic value in [0,1) from the row identity.
func hashUnit(seed uint64, parts ...string) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d", seed)
	for _, p := range parts {
		h.Write([]byte{0})
		h.Write([]byte(p))
	}
	return float64(h.Sum64()>>11) / float64(1<<53)
}

// Run compresses every corpus file with every codec once (reference-core
// stats are context-independent) and expands the grid across contexts. It
// is the sequential special case of RunParallel (jobs = 1).
func Run(files []synth.File, contexts []cloud.VM, codecs []string, noise NoiseConfig) (*Grid, error) {
	return RunParallel(context.Background(), files, contexts, codecs, noise, 1)
}

// CompactGrid runs the compact training grid that stands in when no grid
// or model file is given (ctxselect, the dnacompd fallback model, the
// cloudexchange example): 32 synthetic files of 2–256 KiB from seed 2015,
// through the paper's four compared codecs (ctw, dnax, gencompress, gzip)
// over the 32 cloud contexts. The codecs must be registered by the caller.
func CompactGrid() (*Grid, error) {
	files := synth.ExperimentCorpus(synth.CorpusSpec{NumFiles: 32, MinSize: 2 << 10, MaxSize: 256 << 10, Seed: 2015})
	return Run(files, cloud.Grid(), []string{"ctw", "dnax", "gencompress", "gzip"}, DefaultNoise())
}

// expand builds the (file × context) rows with noise applied.
func (g *Grid) expand(noise NoiseConfig) {
	g.Rows = g.Rows[:0]
	for fi, fr := range g.Files {
		for _, vm := range g.Contexts {
			row := Row{FileIdx: fi, FileName: fr.Name, FileBases: fr.Bases, VM: vm}
			for _, run := range fr.Runs {
				m := core.Measurement{
					Codec:           run.Codec,
					CompressMS:      vm.ExecMS(run.CompressStats),
					DecompressMS:    cloud.AzureVM.ExecMS(run.DecompStats),
					UploadMS:        vm.UploadMS(run.CompressedSize),
					DownloadMS:      cloud.AzureVM.DownloadMS(run.CompressedSize),
					CompressedBytes: run.CompressedSize,
				}
				key := []string{fr.Name, vm.Name, run.Codec}
				if noise.TimeAmp > 0 {
					m.CompressMS *= 1 + float64(noise.TimeAmp*(float64(2*hashUnit(noise.Seed, append(key, "ct")...))-1))
					m.DecompressMS *= 1 + float64(noise.TimeAmp*(float64(2*hashUnit(noise.Seed, append(key, "dt")...))-1))
					m.UploadMS *= 1 + float64(noise.TimeAmp*(float64(2*hashUnit(noise.Seed, append(key, "ut")...))-1))
					m.DownloadMS *= 1 + float64(noise.TimeAmp*(float64(2*hashUnit(noise.Seed, append(key, "dl")...))-1))
				}
				ram := float64(run.CompressStats.PeakMem)
				ram += float64((noise.RAMBaseMB + float64(noise.RAMAmpMB*hashUnit(noise.Seed, append(key, "rb")...))) * (1 << 20))
				if noise.BusyCPUDoubles && hashUnit(noise.Seed, append(key, "busy")...) > 0.7 {
					ram *= 1.8
				}
				m.RAMBytes = int(ram)
				row.Measurements = append(row.Measurements, m)
			}
			g.Rows = append(g.Rows, row)
		}
	}
}

// Labels computes the Eq. 1 winner for every row under the given weights.
func (g *Grid) Labels(w core.Weights) []string {
	out := make([]string, len(g.Rows))
	for i, row := range g.Rows {
		name, err := core.Label(row.Measurements, w)
		if err != nil {
			name = ""
		}
		out[i] = name
	}
	return out
}

// LabelsNormalized computes the future-work normalized-Eq.1 winner for
// every row (core.LabelNormalized).
func (g *Grid) LabelsNormalized(w core.Weights) []string {
	out := make([]string, len(g.Rows))
	for i, row := range g.Rows {
		name, err := core.LabelNormalized(row.Measurements, w)
		if err != nil {
			name = ""
		}
		out[i] = name
	}
	return out
}

// DatasetNormalized is Dataset with normalized-Eq.1 labels.
func (g *Grid) DatasetNormalized(w core.Weights) dtree.Dataset {
	ds := dtree.Dataset{
		FeatureNames: core.FeatureNames,
		ClassNames:   append([]string(nil), g.Codecs...),
	}
	classIdx := map[string]int{}
	for i, c := range g.Codecs {
		classIdx[c] = i
	}
	labels := g.LabelsNormalized(w)
	for i, row := range g.Rows {
		ci, ok := classIdx[labels[i]]
		if !ok {
			continue // labeling failed (no measurements): skip, don't poison class 0
		}
		ds.X = append(ds.X, row.Context().Features())
		ds.Y = append(ds.Y, ci)
	}
	return ds
}

// LabelCounts tallies winners under the weights.
func (g *Grid) LabelCounts(w core.Weights) map[string]int {
	counts := map[string]int{}
	for _, l := range g.Labels(w) {
		counts[l]++
	}
	return counts
}

// Dataset converts the grid to a learning dataset under the given weights.
// Class space is the codec list (even codecs that never win, mirroring the
// paper's observation that Gzip "is not considered in results").
func (g *Grid) Dataset(w core.Weights) dtree.Dataset {
	ds := dtree.Dataset{
		FeatureNames: core.FeatureNames,
		ClassNames:   append([]string(nil), g.Codecs...),
	}
	classIdx := map[string]int{}
	for i, c := range g.Codecs {
		classIdx[c] = i
	}
	labels := g.Labels(w)
	for i, row := range g.Rows {
		ci, ok := classIdx[labels[i]]
		if !ok {
			continue // labeling failed (no measurements): skip, don't poison class 0
		}
		ds.X = append(ds.X, row.Context().Features())
		ds.Y = append(ds.Y, ci)
	}
	return ds
}

// Split partitions the grid by FILE into train and test grids: every fourth
// file (by index) is held out, reproducing the paper's 25 % test split
// ("33 files so 33*32 ... = 1056 rows").
func (g *Grid) Split() (train, test *Grid) {
	train = &Grid{Codecs: g.Codecs, Contexts: g.Contexts}
	test = &Grid{Codecs: g.Codecs, Contexts: g.Contexts}
	testFile := make([]bool, len(g.Files))
	for fi := range g.Files {
		if fi%4 == 3 {
			testFile[fi] = true
		}
	}
	mapIdx := func(dst *Grid, fr FileResult) int {
		fr.Runs = append([]CodecRun(nil), fr.Runs...)
		dst.Files = append(dst.Files, fr)
		return len(dst.Files) - 1
	}
	trainIdx := make([]int, len(g.Files))
	testIdx := make([]int, len(g.Files))
	for fi, fr := range g.Files {
		if testFile[fi] {
			testIdx[fi] = mapIdx(test, fr)
		} else {
			trainIdx[fi] = mapIdx(train, fr)
		}
	}
	for _, row := range g.Rows {
		// Deep-copy the measurements: the copied Row struct would otherwise
		// share its Measurements backing array with the parent grid, letting
		// a mutation of a train row corrupt the parent (and through it the
		// held-out evaluation).
		r := row
		r.Measurements = append([]core.Measurement(nil), row.Measurements...)
		if testFile[row.FileIdx] {
			r.FileIdx = testIdx[row.FileIdx]
			test.Rows = append(test.Rows, r)
		} else {
			r.FileIdx = trainIdx[row.FileIdx]
			train.Rows = append(train.Rows, r)
		}
	}
	return train, test
}

// Method names accepted by TrainEval.
const (
	MethodCART  = "cart"
	MethodCHAID = "chaid"
)

// TrainEval trains the chosen method on train-labels and reports validation
// accuracy on the test grid, both labeled under the same weights.
func TrainEval(train, test *Grid, method string, w core.Weights, cfg dtree.Config) (*dtree.Tree, float64, error) {
	ds := train.Dataset(w)
	var (
		tree *dtree.Tree
		err  error
	)
	switch method {
	case MethodCART:
		tree, err = dtree.TrainCART(ds, cfg)
	case MethodCHAID:
		tree, err = dtree.TrainCHAID(ds, cfg)
	default:
		return nil, 0, fmt.Errorf("experiment: unknown method %q", method)
	}
	if err != nil {
		return nil, 0, err
	}
	acc := dtree.Accuracy(tree, test.Dataset(w))
	return tree, acc, nil
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
