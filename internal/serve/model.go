package serve

import (
	"encoding/json"
	"fmt"
	"os"

	"github.com/srl-nuces/ctxdna/internal/core"
	"github.com/srl-nuces/ctxdna/internal/dtree"
	"github.com/srl-nuces/ctxdna/internal/experiment"
)

// LoadModel reads a trained decision-tree model persisted by
// `ctxselect -save-model` and wraps it in the inference engine the daemon
// selects codecs with. Serving from a file keeps the daemon's choices
// byte-for-byte consistent with the offline CLI's answers for the same
// context.
func LoadModel(path string) (*core.InferenceEngine, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	tree := &dtree.Tree{}
	if err := json.Unmarshal(data, tree); err != nil {
		return nil, fmt.Errorf("serve: model %s: %w", path, err)
	}
	return core.NewInferenceEngine(tree)
}

// SaveModel persists an engine's tree in the same JSON shape
// `ctxselect -save-model` writes, so models move freely between the CLI
// and the daemon.
func SaveModel(path string, eng *core.InferenceEngine) error {
	data, err := json.MarshalIndent(eng.Tree(), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// TrainEngine induces a selection tree with the requested method on the
// grid's training files and wraps it for inference.
func TrainEngine(g *experiment.Grid, method string) (*core.InferenceEngine, error) {
	train, test := g.Split()
	tree, _, err := experiment.TrainEval(train, test, method, core.TimeOnlyWeights(), dtree.Config{})
	if err != nil {
		return nil, fmt.Errorf("serve: train: %w", err)
	}
	return core.NewInferenceEngine(tree)
}

// TrainDefaultEngine is the no-model-file fallback: CART over
// experiment.CompactGrid, the grid ctxselect trains on without -grid, so
// daemon and CLI agree without shipping a file.
func TrainDefaultEngine() (*core.InferenceEngine, error) {
	g, err := experiment.CompactGrid()
	if err != nil {
		return nil, fmt.Errorf("serve: training grid: %w", err)
	}
	return TrainEngine(g, experiment.MethodCART)
}
