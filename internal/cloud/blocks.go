package cloud

import (
	"context"
	"runtime"

	"github.com/srl-nuces/ctxdna/internal/compress"
)

// BlockExchangeOptions configures one block-mode exchange: the usual
// exchange knobs plus the block-engine geometry.
type BlockExchangeOptions struct {
	ExchangeOptions
	// Block sets the block size (0 means compress.DefaultBlockSize) and, in
	// Jobs, the transfer pool's bound. Blocks compress on one worker per
	// processor, as compress.Pack runs them; the bytes are the same for any
	// worker count.
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
	blockSize, jobs := opts.Block.BlockSize, opts.Block.Jobs
	if blockSize == 0 {
		blockSize = compress.DefaultBlockSize
	}
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	return exchange(ctx, client, store, codecName, src, opts.ExchangeOptions, blockSize, jobs)
}
