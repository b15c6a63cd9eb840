package core

import (
	"testing"

	"github.com/srl-nuces/ctxdna/internal/cloud"
	"github.com/srl-nuces/ctxdna/internal/dtree"
)

func TestGatherContext(t *testing.T) {
	vm := cloud.VM{RAMMB: 2048, CPUMHz: 2100, BandwidthMbps: 10}
	ctx := GatherContext(vm, 51200)
	if ctx.FileSizeKB != 50 || ctx.RAMMB != 2048 || ctx.CPUMHz != 2100 || ctx.BandwidthMbps != 10 {
		t.Fatalf("ctx = %+v", ctx)
	}
	feats := ctx.Features()
	if len(feats) != len(FeatureNames) {
		t.Fatalf("features %d names %d", len(feats), len(FeatureNames))
	}
}

func TestWeightsScore(t *testing.T) {
	m := Measurement{
		CompressMS: 10, DecompressMS: 20, UploadMS: 30, DownloadMS: 40,
		RAMBytes: 2 << 20,
	}
	if got := TimeOnlyWeights().Score(m); got != 100 {
		t.Errorf("time-only score = %v, want 100", got)
	}
	if got := RAMOnlyWeights().Score(m); got != 2048 {
		t.Errorf("ram-only score = %v, want 2048 (KB)", got)
	}
	mixed := RAMTimeWeights(0.6, 0.4)
	want := 0.4*100 + 0.6*2048
	if got := mixed.Score(m); got != want {
		t.Errorf("mixed score = %v, want %v", got, want)
	}
	if m.TotalTimeMS() != 100 {
		t.Errorf("TotalTimeMS = %v", m.TotalTimeMS())
	}
}

func TestLabelArgmin(t *testing.T) {
	ms := []Measurement{
		{Codec: "a", CompressMS: 100},
		{Codec: "b", CompressMS: 10},
		{Codec: "c", CompressMS: 50},
	}
	got, err := Label(ms, TimeOnlyWeights())
	if err != nil || got != "b" {
		t.Fatalf("Label = %q, %v", got, err)
	}
	if _, err := Label(nil, TimeOnlyWeights()); err == nil {
		t.Fatal("empty measurement list accepted")
	}
	// Ties break toward the earlier entry.
	tie := []Measurement{{Codec: "x", CompressMS: 5}, {Codec: "y", CompressMS: 5}}
	got, _ = Label(tie, TimeOnlyWeights())
	if got != "x" {
		t.Fatalf("tie break = %q, want x", got)
	}
}

func trainTinyTree(t *testing.T) *dtree.Tree {
	t.Helper()
	ds := dtree.Dataset{
		FeatureNames: FeatureNames,
		ClassNames:   []string{"dnax", "gencompress"},
	}
	for i := 0; i < 200; i++ {
		size := float64(i) // KB
		y := 0
		if size < 100 {
			y = 1
		}
		ds.X = append(ds.X, []float64{size, 2048, 2100, 10})
		ds.Y = append(ds.Y, y)
	}
	tree, err := dtree.TrainCART(ds, dtree.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestInferenceEngine(t *testing.T) {
	tree := trainTinyTree(t)
	eng, err := NewInferenceEngine(tree)
	if err != nil {
		t.Fatal(err)
	}
	small := Context{FileSizeKB: 20, RAMMB: 2048, CPUMHz: 2100, BandwidthMbps: 10}
	large := Context{FileSizeKB: 180, RAMMB: 2048, CPUMHz: 2100, BandwidthMbps: 10}
	if got := eng.SelectCodec(small); got != "gencompress" {
		t.Errorf("small file selected %q", got)
	}
	if got := eng.SelectCodec(large); got != "dnax" {
		t.Errorf("large file selected %q", got)
	}
	if len(eng.Rules()) == 0 {
		t.Error("no rules exposed")
	}
	if eng.Tree() != tree {
		t.Error("Tree() does not expose the wrapped tree")
	}
}

func TestInferenceEngineRejectsWrongFeatures(t *testing.T) {
	ds := dtree.Dataset{
		FeatureNames: []string{"alien"},
		ClassNames:   []string{"a", "b"},
		X:            [][]float64{{1}, {2}, {3}, {4}},
		Y:            []int{0, 1, 0, 1},
	}
	tree, err := dtree.TrainCART(ds, dtree.Config{MinSamplesSplit: 2, MinSamplesLeaf: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewInferenceEngine(tree); err == nil {
		t.Fatal("wrong feature space accepted")
	}
	if _, err := NewInferenceEngine(nil); err == nil {
		t.Fatal("nil tree accepted")
	}
}
