package dtree

import (
	"math"
	"math/rand"
	"testing"
)

// axisDataset builds a dataset whose label is determined by thresholding
// feature 0 at 50 (class 0 below, class 1 at/above), with an optional noise
// rate flipping labels.
func axisDataset(n int, noise float64, seed int64) Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := Dataset{
		FeatureNames: []string{"size", "junk"},
		ClassNames:   []string{"small", "large"},
	}
	for i := 0; i < n; i++ {
		v := rng.Float64() * 100
		y := 0
		if v >= 50 {
			y = 1
		}
		if rng.Float64() < noise {
			y = 1 - y
		}
		ds.X = append(ds.X, []float64{v, rng.Float64()})
		ds.Y = append(ds.Y, y)
	}
	return ds
}

func TestCARTLearnsThreshold(t *testing.T) {
	ds := axisDataset(600, 0, 1)
	tree, err := TrainCART(ds, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(tree, ds); acc < 0.98 {
		t.Fatalf("training accuracy %.3f, want >= 0.98", acc)
	}
	// Generalization on fresh data from the same law.
	test := axisDataset(400, 0, 2)
	if acc := Accuracy(tree, test); acc < 0.95 {
		t.Fatalf("test accuracy %.3f, want >= 0.95", acc)
	}
	// The learned threshold should be near 50.
	root := tree.root
	if root.leaf || root.feature != 0 {
		t.Fatalf("root did not split on feature 0: %+v", root)
	}
	if math.Abs(root.threshold-50) > 5 {
		t.Fatalf("root threshold %.2f, want near 50", root.threshold)
	}
}

func TestCHAIDLearnsThreshold(t *testing.T) {
	ds := axisDataset(600, 0, 3)
	tree, err := TrainCHAID(ds, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(tree, ds); acc < 0.85 {
		t.Fatalf("training accuracy %.3f, want >= 0.85 (bin granularity bounds it)", acc)
	}
	test := axisDataset(400, 0, 4)
	if acc := Accuracy(tree, test); acc < 0.8 {
		t.Fatalf("test accuracy %.3f, want >= 0.8", acc)
	}
	if tree.root.leaf || tree.root.feature != 0 {
		t.Fatalf("CHAID root did not split on the informative feature")
	}
	if len(tree.root.children) < 2 {
		t.Fatalf("CHAID root has %d children", len(tree.root.children))
	}
}

func TestNoiseLimitsAccuracy(t *testing.T) {
	// With 20 % label noise no tree should reach 90 % test accuracy — a
	// sanity check against leakage through the evaluation helpers.
	train := axisDataset(800, 0.2, 5)
	test := axisDataset(400, 0.2, 6)
	for _, train_ := range []func(Dataset, Config) (*Tree, error){TrainCART, TrainCHAID} {
		tree, err := train_(train, Config{})
		if err != nil {
			t.Fatal(err)
		}
		acc := Accuracy(tree, test)
		if acc > 0.9 {
			t.Fatalf("noisy test accuracy %.3f suspiciously high", acc)
		}
		if acc < 0.6 {
			t.Fatalf("noisy test accuracy %.3f suspiciously low", acc)
		}
	}
}

func TestPureLeafShortCircuit(t *testing.T) {
	ds := Dataset{
		FeatureNames: []string{"x"},
		ClassNames:   []string{"a", "b"},
	}
	for i := 0; i < 100; i++ {
		ds.X = append(ds.X, []float64{float64(i)})
		ds.Y = append(ds.Y, 0) // all same class
	}
	for _, train := range []func(Dataset, Config) (*Tree, error){TrainCART, TrainCHAID} {
		tree, err := train(ds, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if tree.NodeCount() != 1 {
			t.Fatalf("pure dataset should give a lone leaf, got %d nodes", tree.NodeCount())
		}
		if Accuracy(tree, ds) != 1 {
			t.Fatal("pure dataset accuracy must be 1")
		}
	}
}

func TestMinSamplesLeafRespected(t *testing.T) {
	ds := axisDataset(60, 0, 7)
	tree, err := TrainCART(ds, Config{MinSamplesLeaf: 25, MinSamplesSplit: 50})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tree.Rules() {
		if r.Support < 25 {
			t.Fatalf("leaf with support %d violates MinSamplesLeaf", r.Support)
		}
	}
}

func TestMaxDepthRespected(t *testing.T) {
	ds := axisDataset(1000, 0.05, 8)
	for _, train := range []func(Dataset, Config) (*Tree, error){TrainCART, TrainCHAID} {
		tree, err := train(ds, Config{MaxDepth: 2})
		if err != nil {
			t.Fatal(err)
		}
		if d := tree.Depth(); d > 2 {
			t.Fatalf("depth %d exceeds MaxDepth 2", d)
		}
	}
}

func TestValidateCatchesBadData(t *testing.T) {
	bad := Dataset{FeatureNames: []string{"x"}, ClassNames: []string{"a"}, X: [][]float64{{1}}, Y: []int{5}}
	if err := bad.Validate(); err == nil {
		t.Fatal("out-of-range label accepted")
	}
	ragged := Dataset{FeatureNames: []string{"x", "y"}, ClassNames: []string{"a"}, X: [][]float64{{1}}, Y: []int{0}}
	if err := ragged.Validate(); err == nil {
		t.Fatal("ragged row accepted")
	}
	mismatch := Dataset{FeatureNames: []string{"x"}, ClassNames: []string{"a"}, X: [][]float64{{1}}, Y: nil}
	if err := mismatch.Validate(); err == nil {
		t.Fatal("row/label mismatch accepted")
	}
	if _, err := TrainCART(Dataset{FeatureNames: []string{"x"}, ClassNames: []string{"a"}}, Config{}); err == nil {
		t.Fatal("empty dataset accepted")
	}
}

func TestRulesCoverFeatureSpace(t *testing.T) {
	// Every point must be covered by exactly one rule, and that rule's
	// class must equal Predict's answer.
	ds := axisDataset(500, 0.05, 9)
	rng := rand.New(rand.NewSource(10))
	for _, train := range []func(Dataset, Config) (*Tree, error){TrainCART, TrainCHAID} {
		tree, err := train(ds, Config{})
		if err != nil {
			t.Fatal(err)
		}
		rules := tree.Rules()
		if len(rules) == 0 {
			t.Fatal("no rules")
		}
		for trial := 0; trial < 500; trial++ {
			x := []float64{rng.Float64()*120 - 10, rng.Float64()}
			covered := 0
			ruleClass := -1
			for _, r := range rules {
				match := true
				for _, c := range r.Conditions {
					v := x[c.Feature]
					if !(v >= c.Low && v < c.High) && !(math.IsInf(c.Low, -1) && v < c.High) && !(math.IsInf(c.High, 1) && v >= c.Low) {
						match = false
						break
					}
				}
				if match {
					covered++
					ruleClass = r.Class
				}
			}
			if covered != 1 {
				t.Fatalf("%s: point %v covered by %d rules", tree.Method, x, covered)
			}
			if ruleClass != tree.Predict(x) {
				t.Fatalf("%s: rule class %d != Predict %d at %v", tree.Method, ruleClass, tree.Predict(x), x)
			}
		}
	}
}

// ConfusionMatrix returns counts[actual][predicted].
func ConfusionMatrix(t *Tree, ds Dataset) [][]int {
	m := make([][]int, len(t.ClassNames))
	for i := range m {
		m[i] = make([]int, len(t.ClassNames))
	}
	for i, row := range ds.X {
		m[ds.Y[i]][t.Predict(row)]++
	}
	return m
}

func TestConfusionMatrix(t *testing.T) {
	ds := axisDataset(300, 0, 11)
	tree, err := TrainCART(ds, Config{})
	if err != nil {
		t.Fatal(err)
	}
	cm := ConfusionMatrix(tree, ds)
	total := 0
	diag := 0
	for i := range cm {
		for j := range cm[i] {
			total += cm[i][j]
			if i == j {
				diag += cm[i][j]
			}
		}
	}
	if total != 300 {
		t.Fatalf("confusion matrix total %d, want 300", total)
	}
	if acc := Accuracy(tree, ds); math.Abs(acc-float64(diag)/300) > 1e-12 {
		t.Fatalf("confusion diagonal disagrees with Accuracy")
	}
}

func TestMultiClassFourWay(t *testing.T) {
	// Four quadrant classes over two features — mirrors the experiment's
	// four-codec label space.
	rng := rand.New(rand.NewSource(12))
	ds := Dataset{
		FeatureNames: []string{"a", "b"},
		ClassNames:   []string{"q0", "q1", "q2", "q3"},
	}
	for i := 0; i < 1200; i++ {
		a, b := rng.Float64(), rng.Float64()
		y := 0
		if a >= 0.5 {
			y |= 1
		}
		if b >= 0.5 {
			y |= 2
		}
		ds.X = append(ds.X, []float64{a, b})
		ds.Y = append(ds.Y, y)
	}
	for _, train := range []func(Dataset, Config) (*Tree, error){TrainCART, TrainCHAID} {
		tree, err := train(ds, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if acc := Accuracy(tree, ds); acc < 0.85 {
			t.Fatalf("%s quadrant accuracy %.3f, want >= 0.85", tree.Method, acc)
		}
	}
}

func TestCHAIDMultiwaySplits(t *testing.T) {
	// Three bands along one feature: CHAID should produce a 3-way split at
	// the root rather than a binary cascade.
	rng := rand.New(rand.NewSource(13))
	ds := Dataset{FeatureNames: []string{"v"}, ClassNames: []string{"lo", "mid", "hi"}}
	for i := 0; i < 900; i++ {
		v := rng.Float64() * 90
		y := int(v / 30)
		ds.X = append(ds.X, []float64{v})
		ds.Y = append(ds.Y, y)
	}
	tree, err := TrainCHAID(ds, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if tree.root.leaf {
		t.Fatal("root is a leaf")
	}
	if got := len(tree.root.children); got < 3 {
		t.Fatalf("root has %d children, want >= 3 (multiway)", got)
	}
	if acc := Accuracy(tree, ds); acc < 0.9 {
		t.Fatalf("band accuracy %.3f", acc)
	}
}

func TestTreeString(t *testing.T) {
	ds := axisDataset(200, 0, 14)
	tree, err := TrainCART(ds, Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := tree.String()
	if len(s) == 0 || s[:4] != "cart" {
		t.Fatalf("String output malformed: %q", s)
	}
}

func BenchmarkTrainCART(b *testing.B) {
	ds := axisDataset(4000, 0.05, 15)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := TrainCART(ds, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrainCHAID(b *testing.B) {
	ds := axisDataset(4000, 0.05, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := TrainCHAID(ds, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}
