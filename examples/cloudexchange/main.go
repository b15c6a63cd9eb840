// Cloudexchange walks the paper's Figure 1 end to end: a client gathers its
// context, the inference engine picks the codec, the sequence is compressed
// into an armored frame and uploaded to the (simulated) Azure Blob store,
// then the cloud VM downloads it and restores it, verifying the frame's
// own checksums. The same exchange is repeated with every
// fixed codec to show what the context-aware choice saved. A final pass
// repeats the selected exchange against a fault-injected store to show the
// retry policy riding out transient storage failures.
//
//	go run ./examples/cloudexchange
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/srl-nuces/ctxdna/internal/cloud"
	"github.com/srl-nuces/ctxdna/internal/core"
	"github.com/srl-nuces/ctxdna/internal/dtree"
	"github.com/srl-nuces/ctxdna/internal/experiment"
	"github.com/srl-nuces/ctxdna/internal/synth"

	_ "github.com/srl-nuces/ctxdna/internal/compress/ctw"
	_ "github.com/srl-nuces/ctxdna/internal/compress/dnax"
	_ "github.com/srl-nuces/ctxdna/internal/compress/gencompress"
	_ "github.com/srl-nuces/ctxdna/internal/compress/gzipx"
)

func main() {
	// 1. Train the inference engine on a compact experiment grid.
	fmt.Println("training selection rules on a compact grid...")
	grid, err := experiment.CompactGrid()
	if err != nil {
		log.Fatal(err)
	}
	train, test := grid.Split()
	tree, acc, err := experiment.TrainEval(train, test, experiment.MethodCART, core.TimeOnlyWeights(), dtree.Config{})
	if err != nil {
		log.Fatal(err)
	}
	engine, err := core.NewInferenceEngine(tree)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CART rules trained (held-out accuracy %.1f%%)\n\n", 100*acc)

	// 2. Exchange three differently-sized sequences from a slow client.
	client := cloud.VM{Name: "lab-vm", RAMMB: 2048, CPUMHz: 2000, BandwidthMbps: 2}
	store := cloud.NewBlobStore()
	profile := synth.Profile{GC: 0.4, RepeatProb: 0.0015, RepeatMin: 20, RepeatMax: 400,
		RCFraction: 0.2, MutationRate: 0.03, LocalOrder: 3, LocalBias: 0.8}

	for _, sizeKB := range []int{10, 40, 200} {
		profile.Length = sizeKB << 10
		sequence := profile.Generate(int64(sizeKB))
		ctx := core.GatherContext(client, len(sequence))
		choice := engine.SelectCodec(ctx)
		fmt.Printf("file %4d KB on %s: inference engine selects %q\n", sizeKB, client.Name, choice)

		best, worst := "", ""
		bestMS, worstMS := 0.0, 0.0
		for _, codec := range []string{"ctw", "dnax", "gencompress", "gzip"} {
			rep, err := cloud.Exchange(context.Background(), client, store, codec, sequence, cloud.ExchangeOptions{
				Container: "sequences",
				Blob:      fmt.Sprintf("%dkb-%s", sizeKB, codec),
			})
			if err != nil {
				log.Fatalf("%s: %v", codec, err)
			}
			total := rep.TotalTimeMS()
			marker := "  "
			if codec == choice {
				marker = "->"
			}
			fmt.Printf("  %s %-12s total %8.1f ms (compress %7.1f, upload %6.1f, download %5.1f, decompress %6.1f) %6.3f bits/base\n",
				marker, codec, total, rep.CompressMS, rep.UploadMS, rep.DownloadMS, rep.DecompressMS, rep.BitsPerBase)
			if best == "" || total < bestMS {
				best, bestMS = codec, total
			}
			if worst == "" || total > worstMS {
				worst, worstMS = codec, total
			}
		}
		verdict := "optimal"
		if choice != best {
			verdict = fmt.Sprintf("best was %s", best)
		}
		fmt.Printf("  selection %s; worst (%s) would have cost %.1fx more\n\n", verdict, worst, worstMS/bestMS)
	}

	// 3. The same exchange over an unreliable link: a fault-injected store
	// drops 30 % of storage ops with transient errors; the retry policy's
	// capped exponential backoff (deterministic jitter, seeded like the
	// faults) still lands every blob byte-identically.
	fmt.Println("re-running the exchanges over a faulty store (30 % transient failures)...")
	faulty := cloud.NewFaultyStore(cloud.NewBlobStore(), cloud.FaultConfig{Rate: 0.3, Seed: 2015})
	for _, sizeKB := range []int{10, 40, 200} {
		profile.Length = sizeKB << 10
		sequence := profile.Generate(int64(sizeKB))
		choice := engine.SelectCodec(core.GatherContext(client, len(sequence)))
		rep, err := cloud.Exchange(context.Background(), client, faulty, choice, sequence, cloud.ExchangeOptions{
			Container: "sequences",
			Blob:      fmt.Sprintf("%dkb-faulty", sizeKB),
			Retry:     cloud.DefaultRetryPolicy(),
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %4d KB via %-11s %d attempt(s), %.1f ms modeled backoff — round trip verified\n",
			sizeKB, choice+":", rep.AttemptCount(), rep.RetryWaitMS)
		for _, tr := range rep.Traces {
			if tr.Attempts > 1 {
				fmt.Printf("         %-6s needed %d attempts; backoff schedule (ms):", tr.Op, tr.Attempts)
				for _, b := range tr.BackoffMS {
					fmt.Printf(" %.1f", b)
				}
				fmt.Println()
			}
		}
	}
	ops, injected := faulty.Counters()
	fmt.Printf("  store injected %d transient faults over %d ops; every blob landed byte-identical\n", injected, ops)
}
