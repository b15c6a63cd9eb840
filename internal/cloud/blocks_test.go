package cloud

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/srl-nuces/ctxdna/internal/compress"
	"github.com/srl-nuces/ctxdna/internal/obs"
)

// TestExchangeBlocksRoundTripPlainStore: block-mode exchange over a reliable
// store lands one manifest BLOB plus one BLOB per block, reports in piece
// order, and restores through the hardened container path.
func TestExchangeBlocksRoundTripPlainStore(t *testing.T) {
	store := NewBlobStore()
	src := symbols(4096, 11)
	const blockSize = 1000 // 5 blocks: 4 full + one 96-base tail
	rep, err := ExchangeBlocks(context.Background(), chaosClient, store, "dnax", src, BlockExchangeOptions{
		ExchangeOptions: ExchangeOptions{Blob: "seq", Retry: DefaultRetryPolicy()},
		Block:           compress.BlockOptions{BlockSize: blockSize, Jobs: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	wantBlocks := (len(src) + blockSize - 1) / blockSize
	if rep.Blocks != wantBlocks {
		t.Fatalf("Blocks = %d, want %d", rep.Blocks, wantBlocks)
	}
	if rep.OriginalBases != len(src) || rep.CompressedBytes <= 0 || rep.BitsPerBase <= 0 {
		t.Fatalf("bad report %+v", rep)
	}
	if rep.ContainerBytes <= rep.CompressedBytes {
		t.Fatalf("ContainerBytes %d should exceed payload %d (armor overhead)", rep.ContainerBytes, rep.CompressedBytes)
	}
	if rep.CompressMS <= 0 || rep.DecompressMS <= 0 || rep.UploadMS <= 0 || rep.DownloadMS <= 0 {
		t.Fatalf("non-positive stage time: %+v", rep)
	}
	// Reliable store: exactly one attempt per piece per direction, and the
	// traces read manifest-first then block order, upload before download.
	wantPieces := 1 + wantBlocks
	if len(rep.Traces) != 2*wantPieces || rep.AttemptCount() != 2*wantPieces {
		t.Fatalf("traces %d attempts %d, want %d each", len(rep.Traces), rep.AttemptCount(), 2*wantPieces)
	}
	wantOps := []string{"put:seq.cxb1"}
	for k := 0; k < wantBlocks; k++ {
		wantOps = append(wantOps, fmt.Sprintf("put:seq.b%06d", k))
	}
	wantOps = append(wantOps, "get:seq.cxb1")
	for k := 0; k < wantBlocks; k++ {
		wantOps = append(wantOps, fmt.Sprintf("get:seq.b%06d", k))
	}
	for i, tr := range rep.Traces {
		if tr.Op != wantOps[i] {
			t.Fatalf("trace %d is %q, want %q", i, tr.Op, wantOps[i])
		}
	}
}

// TestExchangeBlocksStoreHoldsContainerPieces: the BLOBs in the store are
// exactly the slices of the deterministic container — the manifest is the
// header+index, and every block BLOB is a self-contained armored frame that
// opens on its own.
func TestExchangeBlocksStoreHoldsContainerPieces(t *testing.T) {
	store := NewBlobStore()
	src := symbols(2500, 12)
	opts := compress.BlockOptions{BlockSize: 512, Jobs: 2}
	if _, err := ExchangeBlocks(context.Background(), chaosClient, store, "dnax", src, BlockExchangeOptions{
		ExchangeOptions: ExchangeOptions{Container: "pieces", Blob: "seq"},
		Block:           opts,
	}); err != nil {
		t.Fatal(err)
	}
	container, _, err := compress.BlockCompressObserved(nil, "dnax", src, opts)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := compress.OpenBlocks(container, compress.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	var reassembled []byte
	manifest, err := store.Get("pieces", "seq.cxb1")
	if err != nil {
		t.Fatalf("manifest blob: %v", err)
	}
	reassembled = append(reassembled, manifest...)
	for k := 0; k < rd.Blocks(); k++ {
		frame, err := store.Get("pieces", fmt.Sprintf("seq.b%06d", k))
		if err != nil {
			t.Fatalf("block %d blob: %v", k, err)
		}
		if _, err := compress.Open(frame); err != nil {
			t.Fatalf("block %d blob is not a standalone armored frame: %v", k, err)
		}
		reassembled = append(reassembled, frame...)
	}
	if !bytes.Equal(reassembled, container) {
		t.Fatalf("store pieces reassemble to %d bytes, container is %d and differs", len(reassembled), len(container))
	}
}

// TestExchangeBlocksFaultyDeterministicAcrossJobs: the fault schedule hashes
// (op, container, blob, attempt), so per-piece retry histories — and hence
// the whole report — are identical no matter how many transfer workers
// interleave the ops.
func TestExchangeBlocksFaultyDeterministicAcrossJobs(t *testing.T) {
	run := func(jobs int) BlockExchangeReport {
		store := NewFaultyStore(NewBlobStore(), FaultConfig{Rate: 0.3, Seed: 77})
		rep, err := ExchangeBlocks(context.Background(), chaosClient, store, "dnax", symbols(3000, 13), BlockExchangeOptions{
			ExchangeOptions: ExchangeOptions{Blob: "det", Retry: DefaultRetryPolicy()},
			Block:           compress.BlockOptions{BlockSize: 300, Jobs: jobs},
		})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		return rep
	}
	base := run(1)
	if base.AttemptCount() <= len(base.Traces) {
		t.Fatalf("rate 0.3 over %d ops injected no faults — schedule broken", len(base.Traces))
	}
	for _, jobs := range []int{2, 8} {
		if got := run(jobs); !reflect.DeepEqual(got, base) {
			t.Fatalf("jobs=%d report diverged from jobs=1:\n%+v\nvs\n%+v", jobs, got, base)
		}
	}
}

// tamperStore corrupts one named BLOB on Get — the in-flight bit-flip the
// receiving VM must catch from the container alone.
type tamperStore struct {
	Store
	blob string
}

func (s *tamperStore) Get(container, blob string) ([]byte, error) {
	data, err := s.Store.Get(container, blob)
	if err == nil && blob == s.blob {
		data = append([]byte(nil), data...)
		data[len(data)/2] ^= 0x40
	}
	return data, err
}

// TestExchangeBlocksDetectsTamperedBlock: a single flipped bit in one block
// BLOB must surface as compress.ErrCorrupt at the receiving end.
func TestExchangeBlocksDetectsTamperedBlock(t *testing.T) {
	store := &tamperStore{Store: NewBlobStore(), blob: "seq.b000002"}
	_, err := ExchangeBlocks(context.Background(), chaosClient, store, "dnax", symbols(2048, 14), BlockExchangeOptions{
		ExchangeOptions: ExchangeOptions{Blob: "seq"},
		Block:           compress.BlockOptions{BlockSize: 400},
	})
	if !errors.Is(err, compress.ErrCorrupt) {
		t.Fatalf("tampered block delivered %v, want ErrCorrupt", err)
	}
}

// alteringStore changes what Get returns, as a transfer that cuts,
// lengthens or swaps pieces would: a Get of a blob in from returns the
// named blob's bytes instead, and a blob in edit then has its bytes
// edited.
type alteringStore struct {
	Store
	from map[string]string
	edit map[string]func([]byte) []byte
}

func (s alteringStore) Get(container, blob string) ([]byte, error) {
	name := blob
	if from, ok := s.from[blob]; ok {
		name = from
	}
	data, err := s.Store.Get(container, name)
	if edit := s.edit[blob]; err == nil && edit != nil {
		data = edit(data)
	}
	return data, err
}

// TestExchangeBlocksRejectsAlteredPieces: the receiver attaches each piece
// it fetched as its block's frame, so a block piece one byte short or
// long, a manifest with trailing bytes, or two pieces swapped must each
// fail the exchange as compress.ErrCorrupt, and each is counted as a
// corrupt exchange.
func TestExchangeBlocksRejectsAlteredPieces(t *testing.T) {
	const manifest, block0, block1, block2 = "seq.cxb1", "seq.b000000", "seq.b000001", "seq.b000002"
	cut := func(b []byte) []byte { return b[:len(b)-1] }
	extend := func(b []byte) []byte { return append(b, 0) }
	cases := []struct {
		name  string
		store alteringStore
	}{
		{"block one byte short", alteringStore{edit: map[string]func([]byte) []byte{block1: cut}}},
		{"block one byte long", alteringStore{edit: map[string]func([]byte) []byte{block1: extend}}},
		{"manifest with trailing bytes", alteringStore{edit: map[string]func([]byte) []byte{manifest: extend}}},
		{"two blocks swapped", alteringStore{from: map[string]string{block1: block2, block2: block1}}},
		{"manifest and block swapped", alteringStore{from: map[string]string{manifest: block0, block0: manifest}}},
	}
	reg := obs.NewRegistry()
	ctx := obs.WithMetrics(context.Background(), reg)
	corrupt := reg.Counter("dna_exchange_corrupt_total", "Exchanges that delivered a corrupt frame.")
	for i, tc := range cases {
		tc.store.Store = NewBlobStore()
		_, err := ExchangeBlocks(ctx, chaosClient, tc.store, "dnax", symbols(2048, 18), BlockExchangeOptions{
			ExchangeOptions: ExchangeOptions{Blob: "seq"},
			Block:           compress.BlockOptions{BlockSize: 400},
		})
		if !errors.Is(err, compress.ErrCorrupt) {
			t.Errorf("%s: exchange returned %v, want ErrCorrupt", tc.name, err)
		}
		if got := corrupt.Value(); got != uint64(i+1) {
			t.Errorf("%s: dna_exchange_corrupt_total is %d after %d corrupt exchanges", tc.name, got, i+1)
		}
	}
}

// TestExchangeBlocksCleanup: with Cleanup set, every piece — manifest and
// blocks — is deleted after a verified restore.
func TestExchangeBlocksCleanup(t *testing.T) {
	store := NewBlobStore()
	rep, err := ExchangeBlocks(context.Background(), chaosClient, store, "dnax", symbols(1024, 15), BlockExchangeOptions{
		ExchangeOptions: ExchangeOptions{Container: "tidy", Blob: "seq", Cleanup: true},
		Block:           compress.BlockOptions{BlockSize: 256},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Get("tidy", "seq.cxb1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("manifest survived cleanup: %v", err)
	}
	for k := 0; k < rep.Blocks; k++ {
		if _, err := store.Get("tidy", fmt.Sprintf("seq.b%06d", k)); !errors.Is(err, ErrNotFound) {
			t.Fatalf("block %d survived cleanup: %v", k, err)
		}
	}
}

// TestExchangeBlocksRejectsBadInput mirrors the whole-slice guardrails.
func TestExchangeBlocksRejectsBadInput(t *testing.T) {
	if _, err := ExchangeBlocks(context.Background(), chaosClient, nil, "dnax", symbols(16, 16), BlockExchangeOptions{}); err == nil {
		t.Fatal("nil store accepted")
	}
	if _, err := ExchangeBlocks(context.Background(), chaosClient, NewBlobStore(), "nope", symbols(16, 16), BlockExchangeOptions{}); err == nil {
		t.Fatal("unknown codec accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ExchangeBlocks(ctx, chaosClient, NewBlobStore(), "dnax", symbols(16, 16), BlockExchangeOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context returned %v", err)
	}
}
