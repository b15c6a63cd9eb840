package cloud

import (
	"context"
	"runtime"
	"testing"

	"github.com/srl-nuces/ctxdna/internal/compress"
	"github.com/srl-nuces/ctxdna/internal/obs"
	"github.com/srl-nuces/ctxdna/internal/synth"
)

// heapAllocs is the heap's running allocation total in bytes, every
// processor's allocation cache flushed into it.
func heapAllocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// markingStore is a BlobStore that notes the heap's allocation total after
// every Get: what the total grows by after an exchange's last Get is what
// its restore allocated.
type markingStore struct {
	*BlobStore
	mark uint64
}

func (s *markingStore) Get(container, blob string) ([]byte, error) {
	data, err := s.BlobStore.Get(container, blob)
	s.mark = heapAllocs()
	return data, err
}

// TestExchangeRestoreAllocatesOneBlock: the receiving VM holds the pieces
// it fetched as they came and verifies the container one block at a time,
// so after its last Get it allocates about one block: the buffer every
// block decodes into, and each block's codec models, about 2 KB. Joining
// the pieces into one container would cost the container's size again,
// and holding the restored output the sequence's, 8 blocks here.
func TestExchangeRestoreAllocatesOneBlock(t *testing.T) {
	if raceEnabled {
		// The instrumented build allocates the zeroed block that
		// slices.Grow appends, which a plain build elides.
		t.Skip("allocation is measured without the race detector")
	}
	const blockSize = 64 << 10
	src := synth.Profile{Length: 8 * blockSize, GC: 0.42, RepeatProb: 0.002, RepeatMin: 16, RepeatMax: 128}.Generate(7)
	store := &markingStore{BlobStore: NewBlobStore()}
	ctx := obs.WithMetrics(context.Background(), obs.NewRegistry())
	opts := BlockExchangeOptions{
		ExchangeOptions: ExchangeOptions{Blob: "seq"},
		Block:           compress.BlockOptions{BlockSize: blockSize, Jobs: 1}, // one transfer at a time: the last Get is the last mark
	}
	// The smallest of three runs: the first also registers the metric
	// series, and the runtime's own goroutines allocate now and then.
	var restore uint64
	for run := 0; run < 3; run++ {
		if _, err := ExchangeBlocks(ctx, chaosClient, store, "dnax", src, opts); err != nil {
			t.Fatal(err)
		}
		got := heapAllocs() - store.mark
		if run == 0 || got < restore {
			restore = got
		}
	}
	if limit := uint64(2 * blockSize); restore > limit {
		t.Errorf("the restore allocated %d bytes after the last Get, over %d: about one %d-base block is its share", restore, limit, blockSize)
	}
}

// BenchmarkExchangeBlocks moves one 1 MiB dnax sequence in 64 KiB blocks
// through an in-memory fleet of 8 shards at replication 3, with no faults:
// block compress and sealing, fleet put and get, and the receiver's block
// by block verify. B/op is what one exchange allocates.
func BenchmarkExchangeBlocks(b *testing.B) {
	src := synth.Profile{Length: 1 << 20, GC: 0.42, RepeatProb: 0.002, RepeatMin: 16, RepeatMax: 128}.Generate(1)
	fleet, err := NewFleet(FleetConfig{Shards: DefaultShardSpecs(8, 0, 1), Replication: 3, Seed: 1, Registry: obs.NewRegistry()})
	if err != nil {
		b.Fatal(err)
	}
	ctx := obs.WithMetrics(context.Background(), obs.NewRegistry())
	opts := BlockExchangeOptions{
		ExchangeOptions: ExchangeOptions{Blob: "seq", Retry: DefaultRetryPolicy()},
		Block:           compress.BlockOptions{BlockSize: 64 << 10},
	}
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ExchangeBlocks(ctx, chaosClient, fleet, "dnax", src, opts); err != nil {
			b.Fatal(err)
		}
	}
}
