package cloud

import (
	"context"
	"fmt"
	"runtime"

	"github.com/srl-nuces/ctxdna/internal/compress"
	"github.com/srl-nuces/ctxdna/internal/obs"
)

// BlockExchangeOptions configures one block-mode exchange: the usual
// exchange knobs plus the block-engine geometry.
type BlockExchangeOptions struct {
	ExchangeOptions
	// Block configures the block engine: block size and the worker/transfer
	// concurrency bound.
	Block compress.BlockOptions
}

// BlockExchangeReport extends the exchange report with the block-mode
// figures.
type BlockExchangeReport struct {
	ExchangeReport
	// Blocks is the number of blocks the container was split into.
	Blocks int
	// ContainerBytes is the full multi-block container size — what the
	// blobs sum to (manifest + per-block frames).
	ContainerBytes int
}

// ExchangeBlocks runs the exchange pipeline through the block engine:
// compress src into a multi-block container (bounded worker pool, byte
// deterministic for any job count) and ship it as 1 + c BLOBs — the
// container's header+index as "<blob>.cxb1" and block k's armored frame as
// "<blob>.bNNNNNN" — through a bounded transfer pool, so blocks move
// concurrently instead of as one monolithic stream. The Azure VM opens
// the manifest as the container's header and index, attaches each fetched
// block BLOB as its block's frame without joining them, and verifies the
// container through the validated block path (per-block hardened decode
// plus the whole-output checksum). Each BLOB gets its own retry schedule, so a
// transient fault on one block never re-uploads the others; traces are
// reported in manifest-then-block-index order regardless of transfer
// interleaving, keeping reports reproducible under any concurrency.
// Everything past the packing step is the pipeline Exchange runs.
func ExchangeBlocks(ctx context.Context, client VM, store Store, codecName string, src []byte, opts BlockExchangeOptions) (BlockExchangeReport, error) {
	jobs := opts.Block.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	return exchange(ctx, client, store, codecName, src, opts.ExchangeOptions, jobs, func(reg *obs.Registry, blob string, rep *BlockExchangeReport) ([]piece, compress.Stats, error) {
		container, cst, err := compress.BlockCompressObserved(reg, codecName, src, opts.Block)
		if err != nil {
			return nil, cst, fmt.Errorf("cloud: block compress: %w", err)
		}
		rd, err := compress.OpenBlocksObserved(reg, container, compress.Limits{MaxCompressed: -1, MaxOutput: -1})
		if err != nil {
			return nil, cst, fmt.Errorf("cloud: sealed container does not open: %w", err)
		}
		rep.Blocks = rd.Blocks()
		rep.ContainerBytes = len(container)
		// The wire pieces come from the reader's frame table: the manifest
		// (header+index), then one frame per block.
		manifest := blob + ".cxb1"
		pieces := make([]piece, 1, 1+rd.Blocks())
		head := len(container)
		for k := range rd.Blocks() {
			frame := rd.Frame(k)
			head -= len(frame)
			rep.CompressedBytes += len(frame) - compress.Overhead(codecName)
			name := fmt.Sprintf("%s.b%06d", blob, k)
			pieces = append(pieces, piece{blob: name, tag: ":" + name, data: frame})
		}
		pieces[0] = piece{blob: manifest, tag: ":" + manifest, data: container[:head]}
		return pieces, cst, nil
	})
}
