// Command ctxselect is the paper's inference engine as a CLI: given a
// context (file size, RAM, CPU, bandwidth) it consults rules induced from an
// experiment grid and answers "which algorithm should be used?".
//
//	ctxselect -grid grid.csv -file-kb 30 -ram-mb 2048 -cpu-mhz 2000 -bw 2
//	ctxselect -grid grid.csv -rules                  # print the full rule list
//	ctxselect -grid grid.csv -save-model rules.json  # persist the trained model
//	ctxselect -model rules.json -file-kb 30          # select without retraining
//
// Without -grid or -model it trains on a freshly generated compact grid
// (slower start, no files needed).
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/srl-nuces/ctxdna/internal/core"
	"github.com/srl-nuces/ctxdna/internal/dtree"
	"github.com/srl-nuces/ctxdna/internal/experiment"
	"github.com/srl-nuces/ctxdna/internal/serve"

	_ "github.com/srl-nuces/ctxdna/internal/compress/ctw"
	_ "github.com/srl-nuces/ctxdna/internal/compress/dnax"
	_ "github.com/srl-nuces/ctxdna/internal/compress/gencompress"
	_ "github.com/srl-nuces/ctxdna/internal/compress/gzipx"
)

func main() {
	var (
		gridPath  = flag.String("grid", "", "grid CSV from cmd/experiment (default: generate a compact grid)")
		method    = flag.String("method", "cart", "induction method: cart or chaid (paper prefers CART)")
		fileKB    = flag.Float64("file-kb", 100, "file size in KB")
		ramMB     = flag.Float64("ram-mb", 3584, "client RAM in MB")
		cpuMHz    = flag.Float64("cpu-mhz", 2400, "client CPU in MHz")
		bwMbps    = flag.Float64("bw", 10, "client bandwidth in Mbps")
		showRules = flag.Bool("rules", false, "print the induced rule list and exit")
		showAcc   = flag.Bool("accuracy", false, "report held-out accuracy of the rules")
		saveModel = flag.String("save-model", "", "write the trained model as JSON and exit")
		modelPath = flag.String("model", "", "load a saved model instead of training")
	)
	flag.Parse()
	if err := run(runOpts{
		gridPath: *gridPath, method: *method,
		fileKB: *fileKB, ramMB: *ramMB, cpuMHz: *cpuMHz, bwMbps: *bwMbps,
		showRules: *showRules, showAcc: *showAcc,
		saveModel: *saveModel, modelPath: *modelPath,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "ctxselect:", err)
		os.Exit(1)
	}
}

type runOpts struct {
	gridPath, method              string
	fileKB, ramMB, cpuMHz, bwMbps float64
	showRules, showAcc            bool
	saveModel, modelPath          string
}

func run(o runOpts) error {
	engine, err := loadEngine(o)
	if err != nil {
		return err
	}
	if o.saveModel != "" {
		if err := serve.SaveModel(o.saveModel, engine); err != nil {
			return err
		}
		fmt.Printf("model written to %s\n", o.saveModel)
		return nil
	}
	if o.showRules {
		fmt.Print(engine.Tree().String())
		return nil
	}
	ctx := core.Context{FileSizeKB: o.fileKB, RAMMB: o.ramMB, CPUMHz: o.cpuMHz, BandwidthMbps: o.bwMbps}
	fmt.Printf("context: file=%.0fKB ram=%.0fMB cpu=%.0fMHz bw=%.0fMbps\n", o.fileKB, o.ramMB, o.cpuMHz, o.bwMbps)
	fmt.Printf("selected codec: %s\n", engine.SelectCodec(ctx))
	return nil
}

// loadEngine reads the -model file the daemon reads too, or trains the
// rules from the grid.
func loadEngine(o runOpts) (*core.InferenceEngine, error) {
	if o.modelPath != "" {
		return serve.LoadModel(o.modelPath)
	}
	g, err := loadGrid(o.gridPath)
	if err != nil {
		return nil, err
	}
	train, test := g.Split()
	tree, acc, err := experiment.TrainEval(train, test, o.method, core.TimeOnlyWeights(), dtree.Config{})
	if err != nil {
		return nil, err
	}
	if o.showAcc {
		fmt.Printf("held-out accuracy (%s, time labels): %.4f\n", o.method, acc)
	}
	return core.NewInferenceEngine(tree)
}

func loadGrid(path string) (*experiment.Grid, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return experiment.ReadCSV(f)
	}
	fmt.Fprintln(os.Stderr, "ctxselect: no -grid given; generating a compact training grid...")
	return experiment.CompactGrid()
}
