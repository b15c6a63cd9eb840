package cloud

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/srl-nuces/ctxdna/internal/compress"
	"github.com/srl-nuces/ctxdna/internal/obs"

	_ "github.com/srl-nuces/ctxdna/internal/compress/dnax"
	_ "github.com/srl-nuces/ctxdna/internal/compress/gzipx"
)

// chaosClient is the slow lab guest the chaos tests exchange from.
var chaosClient = VM{Name: "chaos-client", RAMMB: 2048, CPUMHz: 2000, BandwidthMbps: 2}

// symbols generates a deterministic pseudo-DNA symbol sequence (codes 0..3).
func symbols(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(rng.Intn(4))
	}
	return out
}

func TestExchangeRoundTripPlainStore(t *testing.T) {
	store := NewBlobStore()
	src := symbols(4096, 1)
	for _, codec := range []string{"dnax", "gzip"} {
		rep, err := Exchange(context.Background(), chaosClient, store, codec, src, ExchangeOptions{
			Blob: "seq-" + codec, Retry: DefaultRetryPolicy(),
		})
		if err != nil {
			t.Fatalf("%s: %v", codec, err)
		}
		if rep.OriginalBases != len(src) || rep.CompressedBytes <= 0 || rep.BitsPerBase <= 0 {
			t.Fatalf("%s: bad report %+v", codec, rep)
		}
		if rep.CompressMS <= 0 || rep.DecompressMS <= 0 || rep.UploadMS <= 0 || rep.DownloadMS <= 0 {
			t.Fatalf("%s: non-positive stage time: %+v", codec, rep)
		}
		if rep.RetryWaitMS != 0 || rep.AttemptCount() != 2 {
			t.Fatalf("%s: reliable store needed retries: %+v", codec, rep.Traces)
		}
	}
	// A second exchange into the same (now existing) container must work.
	if _, err := Exchange(context.Background(), chaosClient, store, "dnax", src, ExchangeOptions{Blob: "again"}); err != nil {
		t.Fatalf("existing container rejected: %v", err)
	}
}

// TestExchangeBlobIsArmoredFrame: what lands in the store is a sealed frame
// that restores the exact source — the old source-bytes comparison lives on
// here, in the test, where the source is legitimately available.
func TestExchangeBlobIsArmoredFrame(t *testing.T) {
	store := NewBlobStore()
	src := symbols(4096, 9)
	rep, err := Exchange(context.Background(), chaosClient, store, "dnax", src, ExchangeOptions{Blob: "keep"})
	if err != nil {
		t.Fatal(err)
	}
	frame, err := store.Get("exchange", "keep")
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) != rep.FrameBytes {
		t.Fatalf("stored blob is %d bytes, report says %d", len(frame), rep.FrameBytes)
	}
	if rep.FrameBytes != rep.CompressedBytes+compress.Overhead("dnax") {
		t.Fatalf("frame %d bytes, payload %d: armor overhead off", rep.FrameBytes, rep.CompressedBytes)
	}
	restored, _, err := compress.SafeDecompress("dnax", frame, compress.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(restored, src) {
		t.Fatal("stored frame does not restore the source")
	}
}

// corruptingStore delivers blobs with their last byte flipped — transport
// corruption the retry layer cannot see and a real receiver has no source
// bytes to diff against.
type corruptingStore struct{ Store }

func (s corruptingStore) Get(container, blob string) ([]byte, error) {
	data, err := s.Store.Get(container, blob)
	if err != nil {
		return nil, err
	}
	out := append([]byte(nil), data...)
	out[len(out)-1] ^= 0x01
	return out, nil
}

// TestExchangeDetectsCorruptionFromFrameAlone is the acceptance test for
// the armored exchange: an injected payload corruption is caught by the
// frame checksum on the receiving side — no source comparison anywhere in
// the pipeline — and classified as compress.ErrCorrupt.
func TestExchangeDetectsCorruptionFromFrameAlone(t *testing.T) {
	store := corruptingStore{NewBlobStore()}
	rep, err := Exchange(context.Background(), chaosClient, store, "dnax", symbols(2048, 7), ExchangeOptions{
		Retry: DefaultRetryPolicy(),
	})
	if err == nil {
		t.Fatal("corrupted download accepted")
	}
	if !errors.Is(err, compress.ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	// The damage was detected after transport succeeded: no retries burned.
	if rep.AttemptCount() != 2 {
		t.Fatalf("corruption misclassified as transient: %+v", rep.Traces)
	}
}

// TestExchangeFaultyReproducible is the acceptance chaos test: with fault
// rate <= 30 % and the default retry budget, every blob round-trips
// byte-identically (Exchange verifies internally), retries do happen, and
// the same seed reproduces the exact reports — retry schedules included.
func TestExchangeFaultyReproducible(t *testing.T) {
	run := func(seed uint64) ([]ExchangeReport, uint64) {
		store := NewFaultyStore(NewBlobStore(), FaultConfig{Rate: 0.3, Seed: seed})
		var reps []ExchangeReport
		for i := 0; i < 6; i++ {
			for _, codec := range []string{"dnax", "gzip"} {
				src := symbols(2048+512*i, int64(i))
				rep, err := Exchange(context.Background(), chaosClient, store, codec, src, ExchangeOptions{
					Blob:    fmt.Sprintf("seq-%d-%s", i, codec),
					Retry:   DefaultRetryPolicy(),
					Cleanup: true,
				})
				if err != nil {
					t.Fatalf("blob %d via %s: %v", i, codec, err)
				}
				reps = append(reps, rep)
			}
		}
		_, injected := store.Counters()
		return reps, injected
	}
	a, injectedA := run(2015)
	b, injectedB := run(2015)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same fault seed produced different exchange reports")
	}
	if injectedA != injectedB {
		t.Fatalf("same seed injected %d vs %d faults", injectedA, injectedB)
	}
	if injectedA == 0 {
		t.Fatal("30 % fault rate injected nothing over 12 exchanges — schedule degenerate")
	}
	retried := 0
	for _, rep := range a {
		if len(rep.Traces) != 3 { // put, get, delete
			t.Fatalf("report has %d traces: %+v", len(rep.Traces), rep.Traces)
		}
		if rep.AttemptCount() > 3 {
			retried++
		}
	}
	if retried == 0 {
		t.Fatal("no exchange needed a retry at 30 % fault rate")
	}
}

// TestExchangeReportsGoldenDigest pins what both entry points report: a
// sha256 over json.Marshal(report) plus the error string of every
// Exchange and ExchangeBlocks call across fault rates 0, 0.3 and 1, dnax
// and gzip, transfer jobs 1-3, cleanup on and off, empty input, and an
// 8-shard, 3-replica fleet with one dead shard. Any change to a modeled
// time, a trace, a byte count or an error message moves the digest.
func TestExchangeReportsGoldenDigest(t *testing.T) {
	const want = "b2dd7e50b4b3a82a81fdae235f93344317ab716abbb49690507bb8e15f3d5319"
	ctx := context.Background()
	h := sha256.New()
	calls := 0
	record := func(rep any, err error) {
		js, jerr := json.Marshal(rep)
		if jerr != nil {
			t.Fatal(jerr)
		}
		fmt.Fprintf(h, "%s|%v\n", js, err)
		calls++
	}
	// jobs 0 runs the whole-slice Exchange; 1-3 run ExchangeBlocks.
	exchange := func(store Store, codec string, src []byte, jobs int, cleanup bool) {
		opts := ExchangeOptions{Blob: "golden", Retry: DefaultRetryPolicy(), Cleanup: cleanup}
		if jobs == 0 {
			record(Exchange(ctx, chaosClient, store, codec, src, opts))
			return
		}
		record(ExchangeBlocks(ctx, chaosClient, store, codec, src, BlockExchangeOptions{
			ExchangeOptions: opts,
			Block:           compress.BlockOptions{BlockSize: 700, Jobs: jobs},
		}))
	}
	for _, codec := range []string{"dnax", "gzip"} {
		for jobs := 0; jobs <= 3; jobs++ {
			for _, rate := range []float64{0, 0.3, 1} {
				for _, cleanup := range []bool{false, true} {
					store := NewFaultyStore(NewBlobStore(), FaultConfig{Rate: rate, Seed: 2015})
					exchange(store, codec, symbols(3000, 1), jobs, cleanup)
				}
			}
			exchange(NewBlobStore(), codec, nil, jobs, true)

			fleet, err := NewFleet(FleetConfig{
				Shards:      DefaultShardSpecs(8, 0.15, 99),
				Replication: 3,
				Seed:        42,
				Clock:       obs.NewFake(time.Unix(1700000000, 0).UTC()),
				Registry:    obs.NewRegistry(),
			})
			if err != nil {
				t.Fatal(err)
			}
			fleet.Kill(fleet.Replicas("exchange", "golden")[0])
			exchange(fleet, codec, symbols(3000, 31), jobs, true)
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Fatalf("%d exchange reports digest to %s, want %s", calls, got, want)
	}
}

func TestBackoffScheduleDeterministicCappedExponential(t *testing.T) {
	p := DefaultRetryPolicy()
	var prev float64
	for r := 0; r < 12; r++ {
		d := p.BackoffMS("put", r)
		if d != p.BackoffMS("put", r) {
			t.Fatalf("retry %d: backoff not deterministic", r)
		}
		if d <= 0 || d > p.CapMS*(1+p.JitterFrac) {
			t.Fatalf("retry %d: backoff %v outside (0, cap*(1+jitter)]", r, d)
		}
		// Jitter is ±20 %, doubling is ×2: growth must dominate until the cap.
		if base := p.BaseMS * float64(int(1)<<r); base < p.CapMS && d <= prev {
			t.Fatalf("retry %d: backoff %v did not grow past %v", r, d, prev)
		}
		prev = d
	}
	other := p
	other.Seed++
	diff := false
	for r := 0; r < 12; r++ {
		if p.BackoffMS("get", r) != other.BackoffMS("get", r) {
			diff = true
		}
	}
	if !diff {
		t.Error("seed change left the jittered schedule untouched")
	}
}

func TestExchangeExhaustsRetries(t *testing.T) {
	store := NewFaultyStore(NewBlobStore(), FaultConfig{Rate: 1, Seed: 3})
	policy := DefaultRetryPolicy()
	policy.MaxRetries = 3
	rep, err := Exchange(context.Background(), chaosClient, store, "dnax", symbols(512, 2), ExchangeOptions{Retry: policy})
	if err == nil {
		t.Fatal("always-failing store succeeded")
	}
	if !IsTransient(err) {
		t.Fatalf("exhaustion error %v hides the transient cause", err)
	}
	if len(rep.Traces) != 1 || rep.Traces[0].Attempts != 4 {
		t.Fatalf("traces = %+v, want one put with 4 attempts", rep.Traces)
	}
	if len(rep.Traces[0].BackoffMS) != 3 {
		t.Fatalf("recorded %d backoffs, want 3", len(rep.Traces[0].BackoffMS))
	}
}

// permafailStore fails Put with a permanent (non-transient) error.
type permafailStore struct{ *BlobStore }

func (s *permafailStore) Put(container, blob string, data []byte) error {
	return errors.New("disk on fire")
}

func TestExchangePermanentErrorNotRetried(t *testing.T) {
	store := &permafailStore{NewBlobStore()}
	if err := store.CreateContainer("exchange"); err != nil {
		t.Fatal(err)
	}
	rep, err := Exchange(context.Background(), chaosClient, store, "dnax", symbols(256, 3), ExchangeOptions{Retry: DefaultRetryPolicy()})
	if err == nil || IsTransient(err) {
		t.Fatalf("err = %v, want permanent failure", err)
	}
	if len(rep.Traces) != 1 || rep.Traces[0].Attempts != 1 {
		t.Fatalf("permanent failure was retried: %+v", rep.Traces)
	}
}

func TestExchangeCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Exchange(ctx, chaosClient, NewBlobStore(), "dnax", symbols(256, 4), ExchangeOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestExchangeOpTimeoutRetriesThenGivesUp(t *testing.T) {
	store := NewFaultyStore(NewBlobStore(), FaultConfig{Rate: 0, Seed: 1, OpDelay: 50 * time.Millisecond})
	policy := DefaultRetryPolicy()
	policy.MaxRetries = 2
	rep, err := Exchange(context.Background(), chaosClient, store, "dnax", symbols(256, 5), ExchangeOptions{
		Retry:     policy,
		OpTimeout: 5 * time.Millisecond,
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if len(rep.Traces) != 1 || rep.Traces[0].Attempts != 3 {
		t.Fatalf("traces = %+v, want one put with 3 attempts", rep.Traces)
	}
}

// TestExchangeOpTimeoutNamesOp: a per-op deadline expiry is an
// *OpTimeoutError naming the op and timeout — "put timed out after 5ms",
// not a generic context deadline — while still unwrapping to
// context.DeadlineExceeded so the transient-retry classification holds.
func TestExchangeOpTimeoutNamesOp(t *testing.T) {
	store := NewFaultyStore(NewBlobStore(), FaultConfig{Rate: 0, Seed: 1, OpDelay: 50 * time.Millisecond})
	_, err := Exchange(context.Background(), chaosClient, store, "dnax", symbols(256, 5), ExchangeOptions{
		Retry:     RetryPolicy{MaxRetries: 0},
		OpTimeout: 5 * time.Millisecond,
	})
	var ot *OpTimeoutError
	if !errors.As(err, &ot) {
		t.Fatalf("err = %v, want *OpTimeoutError in chain", err)
	}
	if ot.Op != "put" || ot.Timeout != 5*time.Millisecond {
		t.Fatalf("timeout attributed to %q after %v, want put after 5ms", ot.Op, ot.Timeout)
	}
	if got, want := ot.Error(), "cloud: put timed out after 5ms"; got != want {
		t.Fatalf("message %q, want %q", got, want)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("op timeout no longer matches DeadlineExceeded: %v", err)
	}
}

func TestExchangeRejectsBadInput(t *testing.T) {
	if _, err := Exchange(context.Background(), chaosClient, nil, "dnax", symbols(16, 6), ExchangeOptions{}); err == nil {
		t.Error("nil store accepted")
	}
	if _, err := Exchange(context.Background(), chaosClient, NewBlobStore(), "nope", symbols(16, 6), ExchangeOptions{}); err == nil {
		t.Error("unknown codec accepted")
	}
}
