package dtree

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

func TestJSONRoundTripCART(t *testing.T) {
	ds := axisDataset(500, 0.05, 21)
	tree, err := TrainCART(ds, Config{})
	if err != nil {
		t.Fatal(err)
	}
	jsonRoundTrip(t, tree, ds)
}

func TestJSONRoundTripCHAID(t *testing.T) {
	ds := axisDataset(500, 0.05, 22)
	tree, err := TrainCHAID(ds, Config{})
	if err != nil {
		t.Fatal(err)
	}
	jsonRoundTrip(t, tree, ds)
}

func jsonRoundTrip(t *testing.T, tree *Tree, ds Dataset) {
	t.Helper()
	data, err := json.Marshal(tree)
	if err != nil {
		t.Fatal(err)
	}
	var back Tree
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Method != tree.Method || back.NodeCount() != tree.NodeCount() || back.Depth() != tree.Depth() {
		t.Fatalf("structure changed: %s %d/%d vs %s %d/%d",
			back.Method, back.NodeCount(), back.Depth(), tree.Method, tree.NodeCount(), tree.Depth())
	}
	// Predictions must agree on random points.
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 1000; i++ {
		x := []float64{rng.Float64()*120 - 10, rng.Float64()}
		if tree.Predict(x) != back.Predict(x) {
			t.Fatalf("prediction diverged at %v", x)
		}
	}
	if Accuracy(tree, ds) != Accuracy(&back, ds) {
		t.Fatal("accuracy changed after round trip")
	}
}

// badModels are model files the validator must reject.
var badModels = []string{
	``,
	`{}`,
	`{"version":99,"method":"cart","features":["x"],"classes":["a"],"root":{"leaf":true,"class":0}}`,
	`{"version":1,"method":"mystery","features":["x"],"classes":["a"],"root":{"leaf":true,"class":0}}`,
	`{"version":1,"method":"cart","features":[],"classes":["a"],"root":{"leaf":true,"class":0}}`,
	`{"version":1,"method":"cart","features":["x"],"classes":["a"]}`,
	`{"version":1,"method":"cart","features":["x"],"classes":["a"],"root":{"leaf":true,"class":5}}`,
	`{"version":1,"method":"cart","features":["x"],"classes":["a"],"root":{"class":0,"feature":3,"left":{"leaf":true,"class":0},"right":{"leaf":true,"class":0}}}`,
	`{"version":1,"method":"cart","features":["x"],"classes":["a"],"root":{"class":0,"feature":0,"left":{"leaf":true,"class":0}}}`,
	`{"version":1,"method":"chaid","features":["x"],"classes":["a","b"],"root":{"class":0,"feature":0,"cuts":[5],"groups":[0,9],"children":[{"leaf":true,"class":0},{"leaf":true,"class":1}]}}`,
}

func TestUnmarshalRejectsBadModels(t *testing.T) {
	for i, in := range badModels {
		var tree Tree
		if err := json.Unmarshal([]byte(in), &tree); err == nil {
			t.Errorf("case %d: bad model accepted", i)
		}
	}
}

// FuzzModelJSON: a model file is outside input (dnacompd -model), so any
// bytes must either fail UnmarshalJSON or give a tree whose Predict
// returns an in-range class index without panicking, for feature vectors
// of the declared width, NaN and ±Inf included.
func FuzzModelJSON(f *testing.F) {
	ds := axisDataset(300, 0.05, 23)
	for _, train := range []func(Dataset, Config) (*Tree, error){TrainCART, TrainCHAID} {
		tree, err := train(ds, Config{})
		if err != nil {
			f.Fatal(err)
		}
		data, err := json.Marshal(tree)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, bad := range badModels {
		f.Add([]byte(bad))
	}
	probes := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1, 0.5, 50, math.MaxFloat64}
	f.Fuzz(func(t *testing.T, data []byte) {
		var tree Tree
		if tree.UnmarshalJSON(data) != nil {
			return
		}
		x := make([]float64, len(tree.FeatureNames))
		for k := range probes {
			for i := range x {
				x[i] = probes[(i+k)%len(probes)]
			}
			if c := tree.Predict(x); c < 0 || c >= len(tree.ClassNames) {
				t.Fatalf("Predict(%v) = class %d of %d", x, c, len(tree.ClassNames))
			}
		}
	})
}
