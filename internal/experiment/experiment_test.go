package experiment

import (
	"math"
	"reflect"
	"testing"

	"github.com/srl-nuces/ctxdna/internal/cloud"
	"github.com/srl-nuces/ctxdna/internal/core"
	"github.com/srl-nuces/ctxdna/internal/dtree"
	"github.com/srl-nuces/ctxdna/internal/synth"
)

// sharedGrid caches one grid across tests in this file (building it runs
// every codec over every file).
var sharedGrid *Grid

func grid(t testing.TB) *Grid {
	t.Helper()
	if sharedGrid == nil {
		sharedGrid = smallGrid(t)
	}
	return sharedGrid
}

func TestRunShape(t *testing.T) {
	g := grid(t)
	if len(g.Files) != 28 {
		t.Fatalf("%d files", len(g.Files))
	}
	if len(g.Contexts) != 32 {
		t.Fatalf("%d contexts", len(g.Contexts))
	}
	if len(g.Rows) != 28*32 {
		t.Fatalf("%d rows, want %d", len(g.Rows), 28*32)
	}
	for _, row := range g.Rows {
		if len(row.Measurements) != len(g.Codecs) {
			t.Fatalf("row has %d measurements", len(row.Measurements))
		}
		for _, m := range row.Measurements {
			if m.CompressMS <= 0 || m.DecompressMS <= 0 || m.UploadMS <= 0 || m.DownloadMS <= 0 {
				t.Fatalf("non-positive stage time: %+v", m)
			}
			if m.RAMBytes <= 0 || m.CompressedBytes <= 0 {
				t.Fatalf("bad resources: %+v", m)
			}
		}
	}
}

func TestRunRejectsEmpty(t *testing.T) {
	if _, err := Run(nil, cloud.Grid(), paperCodecs, DefaultNoise()); err == nil {
		t.Error("empty files accepted")
	}
	files := synth.ExperimentCorpus(synth.CorpusSpec{NumFiles: 1, MinSize: 1024, MaxSize: 1024, Seed: 1})
	if _, err := Run(files, nil, paperCodecs, DefaultNoise()); err == nil {
		t.Error("empty contexts accepted")
	}
	if _, err := Run(files, cloud.Grid(), nil, DefaultNoise()); err == nil {
		t.Error("empty codecs accepted")
	}
	if _, err := Run(files, cloud.Grid(), []string{"nope"}, DefaultNoise()); err == nil {
		t.Error("unknown codec accepted")
	}
}

func TestNoiseDeterministic(t *testing.T) {
	files := synth.ExperimentCorpus(synth.CorpusSpec{NumFiles: 3, MinSize: 2048, MaxSize: 16384, Seed: 2})
	a, err := Run(files, cloud.Grid()[:4], []string{"dnax", "gzip"}, DefaultNoise())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(files, cloud.Grid()[:4], []string{"dnax", "gzip"}, DefaultNoise())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rows {
		for j := range a.Rows[i].Measurements {
			ma, mb := a.Rows[i].Measurements[j], b.Rows[i].Measurements[j]
			if ma != mb {
				t.Fatalf("row %d codec %d differs across identical runs", i, j)
			}
		}
	}
	// A different seed must actually change something.
	n := DefaultNoise()
	n.Seed++
	c, err := Run(files, cloud.Grid()[:4], []string{"dnax", "gzip"}, n)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Rows {
		for j := range a.Rows[i].Measurements {
			if a.Rows[i].Measurements[j] != c.Rows[i].Measurements[j] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("seed change had no effect")
	}
}

func TestSplit75_25(t *testing.T) {
	g := grid(t)
	train, test := g.Split()
	if len(train.Files)+len(test.Files) != len(g.Files) {
		t.Fatal("split loses files")
	}
	wantTest := len(g.Files) / 4
	if len(test.Files) != wantTest {
		t.Fatalf("test files %d, want %d", len(test.Files), wantTest)
	}
	if len(train.Rows)+len(test.Rows) != len(g.Rows) {
		t.Fatal("split loses rows")
	}
	// Row FileIdx must be remapped consistently.
	for _, row := range test.Rows {
		if row.FileIdx < 0 || row.FileIdx >= len(test.Files) {
			t.Fatalf("test row FileIdx %d out of range", row.FileIdx)
		}
		if test.Files[row.FileIdx].Name != row.FileName {
			t.Fatalf("test row name mismatch: %s vs %s", test.Files[row.FileIdx].Name, row.FileName)
		}
	}
	// No file appears in both.
	seen := map[string]bool{}
	for _, f := range train.Files {
		seen[f.Name] = true
	}
	for _, f := range test.Files {
		if seen[f.Name] {
			t.Fatalf("file %s in both splits", f.Name)
		}
	}
}

func TestPaperScaleSplitMatches1056(t *testing.T) {
	// With the paper's 132 files and 32 contexts, the held-out quarter is
	// exactly 33 files × 32 contexts = 1056 rows. Verified structurally
	// (without building the full corpus) via the same fi%4 rule.
	testFiles := 0
	for fi := 0; fi < 132; fi++ {
		if fi%4 == 3 {
			testFiles++
		}
	}
	if testFiles != 33 {
		t.Fatalf("split rule holds out %d of 132 files, want 33", testFiles)
	}
	if testFiles*32 != 1056 {
		t.Fatalf("test rows %d, want 1056", testFiles*32)
	}
}

func TestDatasetLabels(t *testing.T) {
	g := grid(t)
	ds := g.Dataset(core.TimeOnlyWeights())
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(ds.X) != len(g.Rows) {
		t.Fatalf("dataset rows %d", len(ds.X))
	}
	if len(ds.ClassNames) != len(g.Codecs) {
		t.Fatalf("classes %v", ds.ClassNames)
	}
}

func TestTimeModelsAccuracy(t *testing.T) {
	// The paper's headline: time-only models validate at 94.6 % (CHAID) and
	// 96.2 % (CART). Our reproduction must land in the same band.
	g := grid(t)
	train, test := g.Split()
	for _, method := range []string{MethodCART, MethodCHAID} {
		_, acc, err := TrainEval(train, test, method, core.TimeOnlyWeights(), dtree.Config{})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s time-only accuracy: %.3f", method, acc)
		if acc < 0.85 || acc > 1.0 {
			t.Errorf("%s time accuracy %.3f outside the paper band [0.85, 1.0]", method, acc)
		}
	}
}

func TestCompressionTimeModelsNearPerfect(t *testing.T) {
	// Paper: compression-time-only models hit 98.48 % for both methods.
	g := grid(t)
	train, test := g.Split()
	for _, method := range []string{MethodCART, MethodCHAID} {
		_, acc, err := TrainEval(train, test, method, core.CompressTimeOnlyWeights(), dtree.Config{})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s compression-time accuracy: %.3f", method, acc)
		if acc < 0.9 {
			t.Errorf("%s compression-time accuracy %.3f, want >= 0.9", method, acc)
		}
	}
}

func TestRAMModelsPoor(t *testing.T) {
	// Paper: RAM-only models manage only 33.5 % (CART) / 36.1 % (CHAID)
	// because measured RAM is noisy and near-tied across codecs.
	g := grid(t)
	train, test := g.Split()
	for _, method := range []string{MethodCART, MethodCHAID} {
		_, acc, err := TrainEval(train, test, method, core.RAMOnlyWeights(), dtree.Config{})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s ram-only accuracy: %.3f", method, acc)
		if acc > 0.55 {
			t.Errorf("%s RAM accuracy %.3f suspiciously high — noise model broken", method, acc)
		}
		if acc < 0.15 {
			t.Errorf("%s RAM accuracy %.3f below random", method, acc)
		}
	}
}

func TestMixedWeightsIntermediate(t *testing.T) {
	// Paper Table 2: RAM:TIME mixes land between the extremes (22-46 %).
	g := grid(t)
	train, test := g.Split()
	_, accTime, err := TrainEval(train, test, MethodCART, core.TimeOnlyWeights(), dtree.Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, accMixed, err := TrainEval(train, test, MethodCART, core.RAMTimeWeights(0.6, 0.4), dtree.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("CART mixed 60:40 accuracy: %.3f (time-only %.3f)", accMixed, accTime)
	if accMixed >= accTime {
		t.Errorf("mixed weights (%.3f) should degrade vs time-only (%.3f)", accMixed, accTime)
	}
}

func TestTable2Complete(t *testing.T) {
	g := grid(t)
	train, test := g.Split()
	rows, err := Table2(train, test, dtree.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// 3 single-var + 8 RAM:TIME + 1 RAM:CompTime + 4 three-var = 16 combos × 2 methods.
	if len(rows) != 32 {
		t.Fatalf("table2 has %d rows, want 32", len(rows))
	}
	for _, r := range rows {
		if r.Accuracy < 0 || r.Accuracy > 1 {
			t.Errorf("accuracy out of range: %+v", r)
		}
		if r.Method != "CART" && r.Method != "CHAID" {
			t.Errorf("bad method %q", r.Method)
		}
	}
	timeAcc, ok := Table2Lookup(rows, "CART", "100", "TIME")
	if !ok {
		t.Fatal("CART TIME row missing")
	}
	ramAcc, ok := Table2Lookup(rows, "CART", "100", "RAM")
	if !ok {
		t.Fatal("CART RAM row missing")
	}
	if timeAcc <= ramAcc+0.2 {
		t.Errorf("time model (%.3f) must dominate RAM model (%.3f) by a wide margin", timeAcc, ramAcc)
	}
}

func TestValidationTrace(t *testing.T) {
	g := grid(t)
	train, test := g.Split()
	v, err := Validate(train, test, MethodCHAID, core.TimeOnlyWeights(), dtree.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Rows) != len(test.Rows) {
		t.Fatalf("trace rows %d, want %d", len(v.Rows), len(test.Rows))
	}
	hits := 0
	for i := range v.Match {
		if (v.Predicted[i] == v.Actual[i]) != v.Match[i] {
			t.Fatal("Match inconsistent with Predicted/Actual")
		}
		if v.Match[i] {
			hits++
		}
	}
	if math.Abs(v.Accuracy-float64(hits)/float64(len(v.Match))) > 1e-12 {
		t.Fatal("Accuracy inconsistent with Match")
	}
	// Figure 10 material.
	as := v.AnalysisSeries(86)
	if len(as) != 4 {
		t.Fatalf("analysis has %d series", len(as))
	}
	for _, s := range as {
		if len(s.Y) != 86 {
			t.Fatalf("series %s has %d points, want 86", s.Name, len(s.Y))
		}
	}
	for _, y := range as[0].Y { // normalized cpu
		if y < 0 || y > 1 {
			t.Fatalf("normalized value %v out of range", y)
		}
	}
	below, total := v.GapsBelow(50)
	t.Logf("CHAID gaps: %d of %d mismatches below 50 KB (accuracy %.3f)", below, total, v.Accuracy)
	if total > 0 && below == 0 {
		t.Error("expected at least one sub-50KB gap (the paper's CHAID small-file failures)")
	}
}

func TestCARTFindsSmallFileLabelsCHAIDMisses(t *testing.T) {
	// Paper §V.B: CART recovers the GenCompress cases below 50 KB that
	// CHAID misses, scoring higher overall.
	g := grid(t)
	train, test := g.Split()
	chaid, err := Validate(train, test, MethodCHAID, core.TimeOnlyWeights(), dtree.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cart, err := Validate(train, test, MethodCART, core.TimeOnlyWeights(), dtree.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("accuracy: CART %.3f vs CHAID %.3f", cart.Accuracy, chaid.Accuracy)
	if cart.Accuracy < chaid.Accuracy-0.02 {
		t.Errorf("CART (%.3f) should not trail CHAID (%.3f) materially", cart.Accuracy, chaid.Accuracy)
	}
}

// TestFigureSeriesShapes: Figures 2, 3, 5 and 6 hold one summary per codec,
// in grid order, each mean and median inside its min-max spread, and
// Figure 4 one positive bits-per-base value per codec.
func TestFigureSeriesShapes(t *testing.T) {
	g := grid(t)
	for name, value := range map[string]func(core.Measurement) float64{
		"fig2": func(m core.Measurement) float64 { return m.UploadMS },
		"fig3": func(m core.Measurement) float64 { return float64(m.RAMBytes) },
		"fig5": func(m core.Measurement) float64 { return m.CompressMS },
		"fig6": func(m core.Measurement) float64 { return m.DownloadMS },
	} {
		t.Run(name, func(t *testing.T) {
			rows := g.SummarizeByCodec(value)
			if len(rows) != len(g.Codecs) {
				t.Fatalf("%d summaries for %d codecs", len(rows), len(g.Codecs))
			}
			for ci, s := range rows {
				if s.Codec != g.Codecs[ci] {
					t.Fatalf("summary %d is %s, want %s", ci, s.Codec, g.Codecs[ci])
				}
				// A float sum may round the mean of equal values one ulp out.
				slack := 1e-9 * math.Max(math.Abs(s.Max), 1)
				if s.Min > s.Median || s.Median > s.Max || s.Mean < s.Min-slack || s.Mean > s.Max+slack {
					t.Errorf("%s: mean %v, median %v outside [%v, %v]", s.Codec, s.Mean, s.Median, s.Min, s.Max)
				}
			}
		})
	}
	t.Run("fig4", func(t *testing.T) {
		bpb := g.MeanBitsPerBase()
		if len(bpb) != len(g.Codecs) {
			t.Fatalf("%d values for %d codecs", len(bpb), len(g.Codecs))
		}
		for ci, v := range bpb {
			if !(v > 0) {
				t.Errorf("%s: %v bits/base", g.Codecs[ci], v)
			}
		}
	})
}

func TestCompressedSizeContextInvariant(t *testing.T) {
	// Paper: "The context doesn't change the compression ratio."
	g := grid(t)
	byFile := map[string]map[string]int{}
	for _, row := range g.Rows {
		for _, m := range row.Measurements {
			if byFile[row.FileName] == nil {
				byFile[row.FileName] = map[string]int{}
			}
			if prev, ok := byFile[row.FileName][m.Codec]; ok && prev != m.CompressedBytes {
				t.Fatalf("compressed size varies with context for %s/%s", row.FileName, m.Codec)
			}
			byFile[row.FileName][m.Codec] = m.CompressedBytes
		}
	}
}

func TestGenCompressUploadAdvantage(t *testing.T) {
	// Paper §V: "For upload Gencompress on average is good ... as compared
	// to DNAX because of the compression ratio of DNAX."
	g := grid(t)
	mean := map[string]float64{}
	for _, s := range g.SummarizeByCodec(func(m core.Measurement) float64 { return m.UploadMS }) {
		mean[s.Codec] = s.Mean
	}
	if mean["gencompress"] >= mean["dnax"] {
		t.Errorf("gencompress mean upload %.1f should beat dnax %.1f", mean["gencompress"], mean["dnax"])
	}
	if mean["gzip"] <= mean["dnax"] {
		t.Errorf("gzip mean upload %.1f should be the worst (worst ratio)", mean["gzip"])
	}
}

func TestSortRowsBySize(t *testing.T) {
	files := synth.ExperimentCorpus(synth.CorpusSpec{NumFiles: 4, MinSize: 1024, MaxSize: 65536, Seed: 3})
	g, err := Run(files, cloud.Grid()[:2], []string{"gzip"}, DefaultNoise())
	if err != nil {
		t.Fatal(err)
	}
	g.SortRowsBySize()
	for i := 1; i < len(g.Rows); i++ {
		if g.Rows[i].FileBases < g.Rows[i-1].FileBases {
			t.Fatal("rows not sorted by size")
		}
	}
	// Figure 8 plots the sorted rows' file sizes, one point per row.
	f8 := g.FigFileSizeByRow()
	if len(f8.Y) != len(g.Rows) {
		t.Fatalf("fig8 has %d points, want %d", len(f8.Y), len(g.Rows))
	}
	for i, row := range g.Rows {
		if f8.Y[i] != float64(row.FileBases) {
			t.Fatalf("fig8 point %d = %v, want %d", i, f8.Y[i], row.FileBases)
		}
	}
}

func TestNormalizedEq1RecoversMixedAccuracy(t *testing.T) {
	// Future-work check: normalized Eq. 1 labels under 50:50 RAM:TIME are
	// far more learnable than raw-magnitude labels (which collapse to the
	// RAM noise ordering).
	g := grid(t)
	train, test := g.Split()
	w := core.RAMTimeWeights(0.5, 0.5)
	_, rawAcc, err := TrainEval(train, test, MethodCART, w, dtree.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := dtree.TrainCART(train.DatasetNormalized(w), dtree.Config{})
	if err != nil {
		t.Fatal(err)
	}
	normAcc := dtree.Accuracy(tree, test.DatasetNormalized(w))
	t.Logf("50:50 RAM:TIME accuracy: raw %.3f vs normalized %.3f", rawAcc, normAcc)
	if normAcc < rawAcc+0.15 {
		t.Errorf("normalization should materially recover accuracy: raw %.3f, norm %.3f", rawAcc, normAcc)
	}
}

func TestLabelsNormalizedSingleMetricAgrees(t *testing.T) {
	// Under a single-metric weight vector the normalized and raw labelings
	// must coincide row by row.
	g := grid(t)
	raw := g.Labels(core.CompressTimeOnlyWeights())
	norm := g.LabelsNormalized(core.CompressTimeOnlyWeights())
	for i := range raw {
		if raw[i] != norm[i] {
			t.Fatalf("row %d: raw %q vs norm %q", i, raw[i], norm[i])
		}
	}
}

// TestDatasetSkipsUnlabeledRows: a row whose labeling fails (no
// measurements — e.g. a partial build dropped every codec's run for it)
// must be skipped, not silently mapped to class index 0 and poisoning the
// training labels.
func TestDatasetSkipsUnlabeledRows(t *testing.T) {
	files := synth.ExperimentCorpus(synth.CorpusSpec{NumFiles: 3, MinSize: 1024, MaxSize: 4096, Seed: 8})
	g, err := Run(files, cloud.Grid()[:2], []string{"dnax", "gzip"}, DefaultNoise())
	if err != nil {
		t.Fatal(err)
	}
	full := g.Dataset(core.TimeOnlyWeights())
	g.Rows[0].Measurements = nil // labeling now fails for row 0
	for _, ds := range []dtree.Dataset{g.Dataset(core.TimeOnlyWeights()), g.DatasetNormalized(core.TimeOnlyWeights())} {
		if len(ds.X) != len(g.Rows)-1 || len(ds.Y) != len(g.Rows)-1 {
			t.Fatalf("dataset has %d/%d rows, want %d (unlabeled row skipped)", len(ds.X), len(ds.Y), len(g.Rows)-1)
		}
	}
	// The surviving labels are exactly the full dataset's minus row 0 — the
	// old bug instead kept row 0 with Y = 0 (the first codec's class).
	got := g.Dataset(core.TimeOnlyWeights())
	for i := range got.Y {
		if got.Y[i] != full.Y[i+1] {
			t.Fatalf("surviving row %d relabeled %d, want %d", i, got.Y[i], full.Y[i+1])
		}
	}
}

// TestSplitIsolatesMeasurements: Split must deep-copy rows and runs, so
// mutating a child grid cannot corrupt the parent or the sibling.
func TestSplitIsolatesMeasurements(t *testing.T) {
	files := synth.ExperimentCorpus(synth.CorpusSpec{NumFiles: 8, MinSize: 1024, MaxSize: 4096, Seed: 9})
	g, err := Run(files, cloud.Grid()[:2], []string{"dnax", "gzip"}, DefaultNoise())
	if err != nil {
		t.Fatal(err)
	}
	wantLabels := g.Labels(core.TimeOnlyWeights())
	train, test := g.Split()
	for _, rows := range [][]Row{train.Rows, test.Rows} {
		for i := range rows {
			for j := range rows[i].Measurements {
				rows[i].Measurements[j].CompressMS = -1 // scribble over the child
			}
		}
	}
	for i := range train.Files {
		for j := range train.Files[i].Runs {
			train.Files[i].Runs[j].CompressedSize = -1
		}
	}
	for _, row := range g.Rows {
		for _, m := range row.Measurements {
			if m.CompressMS == -1 {
				t.Fatal("mutating a split row corrupted the parent grid (shared backing array)")
			}
		}
	}
	for _, fr := range g.Files {
		for _, run := range fr.Runs {
			if run.CompressedSize == -1 {
				t.Fatal("mutating a split file's runs corrupted the parent grid")
			}
		}
	}
	if got := g.Labels(core.TimeOnlyWeights()); !reflect.DeepEqual(got, wantLabels) {
		t.Fatal("parent labels changed after child mutation")
	}
}
