package cloud

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/srl-nuces/ctxdna/internal/compress"
)

// pipelineModes are the two public entry points onto the one exchange
// pipeline. They differ only in how they pack src, so every contract of
// the shared body below must hold for both.
var pipelineModes = []struct {
	name string
	run  func(ctx context.Context, store Store, codecName string, src []byte, opts ExchangeOptions) (BlockExchangeReport, error)
}{
	{"frame", func(ctx context.Context, store Store, codecName string, src []byte, opts ExchangeOptions) (BlockExchangeReport, error) {
		rep, err := Exchange(ctx, chaosClient, store, codecName, src, opts)
		return BlockExchangeReport{ExchangeReport: rep}, err
	}},
	{"blocks", func(ctx context.Context, store Store, codecName string, src []byte, opts ExchangeOptions) (BlockExchangeReport, error) {
		return ExchangeBlocks(ctx, chaosClient, store, codecName, src, BlockExchangeOptions{
			ExchangeOptions: opts,
			Block:           compress.BlockOptions{BlockSize: 512, Jobs: 3},
		})
	}},
}

// pieceBlob maps a trace label back to the BLOB it moved: a one-frame
// exchange labels its ops with the bare op ("put"), a block exchange with
// "op:<piece>".
func pieceBlob(op, blob string) string {
	if i := strings.IndexByte(op, ':'); i >= 0 {
		return op[i+1:]
	}
	return blob
}

func closeTo(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
}

// faultyRoundTrip runs one successful exchange through a 30 % transient
// fault schedule and returns the report plus the store beneath the faults.
// The seed is fixed so that both modes retry at least one op.
func faultyRoundTrip(t *testing.T, run func(context.Context, Store, string, []byte, ExchangeOptions) (BlockExchangeReport, error), opts ExchangeOptions) (BlockExchangeReport, *BlobStore) {
	t.Helper()
	inner := NewBlobStore()
	store := NewFaultyStore(inner, FaultConfig{Rate: 0.3, Seed: 42})
	rep, err := run(context.Background(), store, "dnax", symbols(3000, 21), opts)
	if err != nil {
		t.Fatal(err)
	}
	retried := false
	for _, tr := range rep.Traces {
		retried = retried || tr.Attempts > 1
	}
	if !retried {
		t.Fatalf("fault schedule retried nothing (%d traces); the test proves nothing", len(rep.Traces))
	}
	return rep, inner
}

// TestExchangePipelineChargesPieceBytesPerAttempt: in both modes the
// modeled transfer times are each piece's size charged once per attempt,
// and FrameBytes is what the store ends up holding.
func TestExchangePipelineChargesPieceBytesPerAttempt(t *testing.T) {
	for _, mode := range pipelineModes {
		t.Run(mode.name, func(t *testing.T) {
			opts := ExchangeOptions{Container: "pipe", Blob: "seq", Retry: DefaultRetryPolicy()}
			rep, inner := faultyRoundTrip(t, mode.run, opts)

			names, err := inner.List("pipe")
			if err != nil {
				t.Fatal(err)
			}
			size := map[string]int{}
			stored := 0
			for _, name := range names {
				n, err := inner.Size("pipe", name)
				if err != nil {
					t.Fatal(err)
				}
				size[name] = n
				stored += n
			}
			if rep.FrameBytes != stored {
				t.Errorf("FrameBytes = %d, store holds %d bytes in %d BLOBs", rep.FrameBytes, stored, len(names))
			}

			var up, down float64
			for _, tr := range rep.Traces {
				blob := pieceBlob(tr.Op, "seq")
				n, ok := size[blob]
				if !ok {
					t.Fatalf("trace %q names BLOB %q, which the store does not hold", tr.Op, blob)
				}
				switch {
				case strings.HasPrefix(tr.Op, "put"):
					up += chaosClient.UploadMS(n) * float64(tr.Attempts)
				case strings.HasPrefix(tr.Op, "get"):
					down += AzureVM.DownloadMS(n) * float64(tr.Attempts)
				default:
					t.Errorf("unexpected trace %q without cleanup", tr.Op)
				}
			}
			if !closeTo(rep.UploadMS, up) {
				t.Errorf("UploadMS = %v, want %v", rep.UploadMS, up)
			}
			if !closeTo(rep.DownloadMS, down) {
				t.Errorf("DownloadMS = %v, want %v", rep.DownloadMS, down)
			}
		})
	}
}

// TestExchangePipelineBackoffKeyedByTraceLabel: every modeled wait is the
// retry policy's wait for the trace's own label, so the one-frame exchange
// keeps its bare "put"/"get" jitter and block pieces jitter by
// "op:<piece>". RetryWaitMS sums exactly those waits.
func TestExchangePipelineBackoffKeyedByTraceLabel(t *testing.T) {
	for _, mode := range pipelineModes {
		t.Run(mode.name, func(t *testing.T) {
			opts := ExchangeOptions{Blob: "seq", Retry: DefaultRetryPolicy(), Cleanup: true}
			rep, _ := faultyRoundTrip(t, mode.run, opts)

			total := 0.0
			for _, tr := range rep.Traces {
				op, _, _ := strings.Cut(tr.Op, ":")
				if op != "put" && op != "get" && op != "delete" {
					t.Errorf("trace %q: op %q", tr.Op, op)
				}
				if mode.name == "frame" && tr.Op != op {
					t.Errorf("one-frame trace %q carries a piece name", tr.Op)
				}
				if mode.name == "blocks" && !strings.HasPrefix(tr.Op, op+":seq.") {
					t.Errorf("block trace %q does not name its piece", tr.Op)
				}
				if len(tr.BackoffMS) != tr.Attempts-1 {
					t.Errorf("trace %q: %d waits for %d attempts", tr.Op, len(tr.BackoffMS), tr.Attempts)
				}
				for r, ms := range tr.BackoffMS {
					if want := opts.Retry.BackoffMS(tr.Op, r); ms != want {
						t.Errorf("trace %q retry %d waited %v, policy says %v", tr.Op, r, ms, want)
					}
					total += ms
				}
			}
			if !closeTo(rep.RetryWaitMS, total) {
				t.Errorf("RetryWaitMS = %v, traces sum to %v", rep.RetryWaitMS, total)
			}
		})
	}
}

// getFailStore accepts every upload and fails every download transiently.
type getFailStore struct{ *BlobStore }

func (s *getFailStore) Get(container, blob string) ([]byte, error) {
	return nil, &TransientError{Op: "get", Container: container, Blob: blob}
}

// TestExchangePipelineGetExhaustionChargesPieceBytes: a GET that exhausts
// its retries still charges the piece's full size per attempt, as a PUT
// does, and the error names the download.
func TestExchangePipelineGetExhaustionChargesPieceBytes(t *testing.T) {
	for _, mode := range pipelineModes {
		t.Run(mode.name, func(t *testing.T) {
			inner := NewBlobStore()
			rep, err := mode.run(context.Background(), &getFailStore{inner}, "dnax", symbols(2000, 22), ExchangeOptions{
				Container: "pipe", Blob: "seq", Retry: RetryPolicy{MaxRetries: 2, BaseMS: 10, Seed: 1},
			})
			if err == nil || !IsTransient(err) || !strings.Contains(err.Error(), "download") {
				t.Fatalf("err = %v, want a transient download failure", err)
			}
			want, gets := 0.0, 0
			for _, tr := range rep.Traces {
				if !strings.HasPrefix(tr.Op, "get") {
					continue
				}
				gets++
				if tr.Attempts != 3 {
					t.Errorf("trace %q: %d attempts, want 3", tr.Op, tr.Attempts)
				}
				n, err := inner.Size("pipe", pieceBlob(tr.Op, "seq"))
				if err != nil {
					t.Fatal(err)
				}
				want += AzureVM.DownloadMS(n) * float64(tr.Attempts)
			}
			if pieces := 1 + rep.Blocks; gets != pieces {
				t.Fatalf("%d get traces, want one per piece (%d)", gets, pieces)
			}
			if !closeTo(rep.DownloadMS, want) {
				t.Errorf("DownloadMS = %v, want %v (piece size × attempts)", rep.DownloadMS, want)
			}
		})
	}
}

// TestExchangePipelineUnknownCodecTouchesNoStore: an unknown codec fails in
// the packing step, before the store is touched, and still books one
// error exchange under one cloud.exchange span.
func TestExchangePipelineUnknownCodecTouchesNoStore(t *testing.T) {
	for _, mode := range pipelineModes {
		t.Run(mode.name, func(t *testing.T) {
			ctx, reg, tr := obsCtx()
			inner := NewBlobStore()
			rep, err := mode.run(ctx, inner, "nope", symbols(64, 23), ExchangeOptions{})
			if !errors.Is(err, compress.ErrUnknownCodec) {
				t.Fatalf("err = %v, want ErrUnknownCodec", err)
			}
			if len(rep.Traces) != 0 || rep.FrameBytes != 0 {
				t.Errorf("unknown codec moved data: %+v", rep)
			}
			if _, err := inner.List("exchange"); !errors.Is(err, ErrNotFound) {
				t.Errorf("container created for an unknown codec: %v", err)
			}
			if got := counter(reg, "dna_exchange_total", "outcome", "error"); got != 1 {
				t.Errorf("exchange error = %d, want 1", got)
			}
			recs := tr.Records()
			if len(recs) != 1 || recs[0].Name != "cloud.exchange" || attr(recs[0], "error") == nil {
				t.Errorf("spans = %+v, want one cloud.exchange carrying the error", recs)
			}
		})
	}
}

// noContainerStore refuses to create containers for a reason other than
// the container already existing.
type noContainerStore struct{ *BlobStore }

var errQuota = errors.New("container quota exhausted")

func (s *noContainerStore) CreateContainer(string) error { return errQuota }

// TestExchangePipelineCreateContainerFailure: only ErrContainerExists is
// tolerated when creating the container; any other failure ends the
// exchange before a single PUT, after the payload was packed.
func TestExchangePipelineCreateContainerFailure(t *testing.T) {
	for _, mode := range pipelineModes {
		t.Run(mode.name, func(t *testing.T) {
			rep, err := mode.run(context.Background(), &noContainerStore{NewBlobStore()}, "gzip", symbols(1500, 24), ExchangeOptions{Retry: DefaultRetryPolicy()})
			if !errors.Is(err, errQuota) || !strings.Contains(err.Error(), "create container") {
				t.Fatalf("err = %v, want the wrapped create-container failure", err)
			}
			if len(rep.Traces) != 0 || rep.UploadMS != 0 {
				t.Errorf("PUT attempted without a container: %+v", rep.Traces)
			}
			if rep.CompressedBytes <= 0 || rep.FrameBytes <= rep.CompressedBytes || rep.CompressMS <= 0 {
				t.Errorf("packing figures missing from the failed report: %+v", rep)
			}
		})
	}
}

// TestExchangePipelineLimitsBindRestore: opts.Limits governs the receiving
// VM's decode of the reassembled bytes in both modes — an output cap one
// symbol short of src is corruption, the exact size restores.
func TestExchangePipelineLimitsBindRestore(t *testing.T) {
	src := symbols(2000, 25)
	for _, mode := range pipelineModes {
		t.Run(mode.name, func(t *testing.T) {
			ctx, reg, _ := obsCtx()
			_, err := mode.run(ctx, NewBlobStore(), "dnax", src, ExchangeOptions{Limits: compress.Limits{MaxOutput: len(src) - 1}})
			if !errors.Is(err, compress.ErrCorrupt) || !strings.Contains(err.Error(), "decompress") {
				t.Fatalf("err = %v, want a corrupt decompress under a short output cap", err)
			}
			if got := counter(reg, "dna_exchange_total", "outcome", "corrupt"); got != 1 {
				t.Errorf("exchange corrupt = %d, want 1", got)
			}
			if _, err := mode.run(ctx, NewBlobStore(), "dnax", src, ExchangeOptions{Limits: compress.Limits{MaxOutput: len(src)}}); err != nil {
				t.Fatalf("exact output cap refused: %v", err)
			}
		})
	}
}

// TestExchangeBlocksOpTimeoutNamesPiece: a block piece's per-op deadline
// names the piece, the first failing piece by index wins, and the error
// still unwraps to context.DeadlineExceeded.
func TestExchangeBlocksOpTimeoutNamesPiece(t *testing.T) {
	store := NewFaultyStore(NewBlobStore(), FaultConfig{Rate: 0, Seed: 1, OpDelay: 50 * time.Millisecond})
	_, err := ExchangeBlocks(context.Background(), chaosClient, store, "dnax", symbols(1024, 26), BlockExchangeOptions{
		ExchangeOptions: ExchangeOptions{Blob: "seq", OpTimeout: 5 * time.Millisecond},
		Block:           compress.BlockOptions{BlockSize: 512, Jobs: 3},
	})
	var ot *OpTimeoutError
	if !errors.As(err, &ot) {
		t.Fatalf("err = %v, want *OpTimeoutError in chain", err)
	}
	if ot.Op != "put:seq.cxb1" {
		t.Fatalf("timeout attributed to %q, want put:seq.cxb1", ot.Op)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("op timeout no longer matches DeadlineExceeded: %v", err)
	}
}
