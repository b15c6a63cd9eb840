// Package core implements the decision half of the paper's context-aware
// compression framework (Figures 1 and 7): the Context a client gathers
// before compressing, the Eq. 1 labeler that scores each algorithm's
// end-to-end cost under a weight vector, and the inference engine that turns
// trained decision-tree rules into codec selections. The exchange itself —
// compress, upload, download at the cloud VM, verified decompress — is
// cloud.Exchange (one armored frame) and cloud.ExchangeBlocks (a block
// container); a client picks the codec here and hands it there.
package core

import (
	"fmt"

	"github.com/srl-nuces/ctxdna/internal/cloud"
	"github.com/srl-nuces/ctxdna/internal/dtree"
)

// Context is the paper's context vector: "Size of file, Algorithm,
// Bandwidth, CPU Speed, and Memory Available". The algorithm is the label
// being predicted; the other four are the features.
type Context struct {
	FileSizeKB    float64
	RAMMB         float64
	CPUMHz        float64
	BandwidthMbps float64
}

// FeatureNames matches the order of Features.
var FeatureNames = []string{"file_kb", "ram_mb", "cpu_mhz", "bw_mbps"}

// Features returns the learning feature vector.
func (c Context) Features() []float64 {
	return []float64{c.FileSizeKB, c.RAMMB, c.CPUMHz, c.BandwidthMbps}
}

// GatherContext is the framework's Context Gatherer: it inspects the client
// VM and the file about to be exchanged.
func GatherContext(vm cloud.VM, fileBytes int) Context {
	return Context{
		FileSizeKB:    float64(fileBytes) / 1024,
		RAMMB:         float64(vm.RAMMB),
		CPUMHz:        float64(vm.CPUMHz),
		BandwidthMbps: vm.BandwidthMbps,
	}
}

// Measurement is one codec's fully-measured exchange in one context — one
// row of the paper's training table before labeling.
type Measurement struct {
	Codec           string
	CompressMS      float64
	DecompressMS    float64
	UploadMS        float64
	DownloadMS      float64
	RAMBytes        int // measured RAM (harness applies measurement noise)
	CompressedBytes int
}

// TotalTimeMS is the equal-weight time sum the paper's headline results use.
func (m Measurement) TotalTimeMS() float64 {
	return m.CompressMS + m.DecompressMS + m.UploadMS + m.DownloadMS
}

// Weights is the weight vector of Eq. 1:
//
//	E = w1·Compress + w2·Decompress + w3·Upload + w4·Download + w5·RAM
//
// Times contribute in milliseconds and RAM in kilobytes, mirroring the
// paper's raw (unnormalized) combination of magnitudes. Because measured
// RAM (tens of thousands of KB) dwarfs the time terms for most rows, any
// weight on RAM drags the labels toward the noisy RAM ordering — exactly
// why the paper's mixed-weight models collapse toward the RAM-only
// accuracy, recovering only as the time weight grows and large files'
// multi-second times overtake the RAM magnitudes.
type Weights struct {
	CompressTime   float64
	DecompressTime float64
	UploadTime     float64
	DownloadTime   float64
	RAM            float64
}

// Common weight vectors from the paper's Table 2.
func TimeOnlyWeights() Weights {
	return Weights{CompressTime: 1, DecompressTime: 1, UploadTime: 1, DownloadTime: 1}
}
func RAMOnlyWeights() Weights          { return Weights{RAM: 1} }
func CompressTimeOnlyWeights() Weights { return Weights{CompressTime: 1} }

// RAMTimeWeights splits weight wRAM:wTime between the RAM term and the four
// time terms (each time term gets wTime).
func RAMTimeWeights(wRAM, wTime float64) Weights {
	return Weights{RAM: wRAM, CompressTime: wTime, DecompressTime: wTime, UploadTime: wTime, DownloadTime: wTime}
}

// Score evaluates Eq. 1 for one measurement.
func (w Weights) Score(m Measurement) float64 {
	return float64(w.CompressTime*m.CompressMS) +
		float64(w.DecompressTime*m.DecompressMS) +
		float64(w.UploadTime*m.UploadMS) +
		float64(w.DownloadTime*m.DownloadMS) +
		float64(w.RAM*float64(m.RAMBytes)/1024)
}

// Label returns the codec minimizing Eq. 1 — the paper's labeling step:
// "the algorithm which is utilizing the less resources is selected to
// label". Ties break toward the earlier measurement, matching a stable
// argmin scan.
func Label(ms []Measurement, w Weights) (string, error) {
	if len(ms) == 0 {
		return "", fmt.Errorf("core: no measurements to label")
	}
	best := 0
	bestE := w.Score(ms[0])
	for i := 1; i < len(ms); i++ {
		if e := w.Score(ms[i]); e < bestE {
			best, bestE = i, e
		}
	}
	return ms[best].Codec, nil
}

// LabelNormalized is the paper's future-work improvement to Eq. 1
// ("Directions for future work could be to improve the Eq. 1"): each metric
// is min-max normalized across the candidate measurements *before*
// weighting, so no term dominates by raw magnitude. Under normalized
// scoring a mixed RAM:TIME weight behaves like an actual trade-off instead
// of collapsing to the RAM ordering.
func LabelNormalized(ms []Measurement, w Weights) (string, error) {
	if len(ms) == 0 {
		return "", fmt.Errorf("core: no measurements to label")
	}
	metrics := [5]func(Measurement) float64{
		func(m Measurement) float64 { return m.CompressMS },
		func(m Measurement) float64 { return m.DecompressMS },
		func(m Measurement) float64 { return m.UploadMS },
		func(m Measurement) float64 { return m.DownloadMS },
		func(m Measurement) float64 { return float64(m.RAMBytes) },
	}
	weights := [5]float64{w.CompressTime, w.DecompressTime, w.UploadTime, w.DownloadTime, w.RAM}
	scores := make([]float64, len(ms))
	for k, metric := range metrics {
		if weights[k] == 0 {
			continue
		}
		lo, hi := metric(ms[0]), metric(ms[0])
		for _, m := range ms[1:] {
			v := metric(m)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		span := hi - lo
		if span == 0 {
			continue
		}
		for i, m := range ms {
			scores[i] += weights[k] * (metric(m) - lo) / span
		}
	}
	best := 0
	for i := 1; i < len(ms); i++ {
		if scores[i] < scores[best] {
			best = i
		}
	}
	return ms[best].Codec, nil
}

// InferenceEngine wraps trained rules and answers "which algorithm should
// be used?" for a gathered context (framework Fig. 7).
type InferenceEngine struct {
	tree *dtree.Tree
}

// NewInferenceEngine wraps a trained tree whose feature space must be the
// core feature vector.
func NewInferenceEngine(t *dtree.Tree) (*InferenceEngine, error) {
	if t == nil {
		return nil, fmt.Errorf("core: nil tree")
	}
	if len(t.FeatureNames) != len(FeatureNames) {
		return nil, fmt.Errorf("core: tree has %d features, want %d", len(t.FeatureNames), len(FeatureNames))
	}
	for i, name := range FeatureNames {
		if t.FeatureNames[i] != name {
			return nil, fmt.Errorf("core: tree feature %d is %q, want %q", i, t.FeatureNames[i], name)
		}
	}
	return &InferenceEngine{tree: t}, nil
}

// SelectCodec returns the codec name the rules choose for ctx.
func (e *InferenceEngine) SelectCodec(ctx Context) string {
	return e.tree.PredictName(ctx.Features())
}

// Rules exposes the underlying rule list (for the CLI and reports).
func (e *InferenceEngine) Rules() []dtree.Rule { return e.tree.Rules() }

// Tree exposes the wrapped tree.
func (e *InferenceEngine) Tree() *dtree.Tree { return e.tree }
