package cloud

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/srl-nuces/ctxdna/internal/compress"
	"github.com/srl-nuces/ctxdna/internal/obs"
)

// obsCtx builds a context carrying a fresh registry and a fake-clock
// tracer, returning both observers.
func obsCtx() (context.Context, *obs.Registry, *obs.Tracer) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer(obs.NewFake(time.Unix(1700000000, 0).UTC()))
	ctx := obs.WithMetrics(context.Background(), reg)
	ctx = obs.WithTracer(ctx, tr)
	return ctx, reg, tr
}

func counter(reg *obs.Registry, name string, labels ...string) uint64 {
	return reg.Counter(name, "", labels...).Value()
}

// TestExchangeObservability: a clean exchange emits a deterministic span
// tree and books codec, byte-volume and per-op outcome metrics.
func TestExchangeObservability(t *testing.T) {
	ctx, reg, tr := obsCtx()
	store := NewBlobStore()
	src := symbols(4096, 11)
	rep, err := Exchange(ctx, chaosClient, store, "dnax", src, ExchangeOptions{
		Retry: DefaultRetryPolicy(), Cleanup: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	recs := tr.Records()
	wantNames := []string{"exchange.put", "exchange.get", "exchange.delete", "cloud.exchange"}
	if len(recs) != len(wantNames) {
		t.Fatalf("%d spans, want %d: %+v", len(recs), len(wantNames), recs)
	}
	root := recs[len(recs)-1]
	for i, rec := range recs {
		if rec.Name != wantNames[i] {
			t.Errorf("span %d = %q, want %q", i, rec.Name, wantNames[i])
		}
		if rec.Name != "cloud.exchange" && rec.Parent != root.ID {
			t.Errorf("span %q parent = %d, want root %d", rec.Name, rec.Parent, root.ID)
		}
		// Fake clock never advanced: durations are exactly zero.
		if rec.DurationNS != 0 {
			t.Errorf("span %q duration = %d on a frozen clock", rec.Name, rec.DurationNS)
		}
	}

	if got := counter(reg, "dna_exchange_total", "outcome", "ok"); got != 1 {
		t.Errorf("exchange ok = %d, want 1", got)
	}
	for _, op := range []string{"put", "get", "delete"} {
		if got := counter(reg, "dna_exchange_ops_total", "op", op, "outcome", "ok"); got != 1 {
			t.Errorf("op %s ok = %d, want 1", op, got)
		}
		if got := counter(reg, "dna_exchange_attempts_total", "op", op); got != 1 {
			t.Errorf("op %s attempts = %d, want 1", op, got)
		}
	}
	if got := counter(reg, "dna_exchange_up_bytes_total"); got != uint64(rep.FrameBytes) {
		t.Errorf("up bytes = %d, want %d", got, rep.FrameBytes)
	}
	if got := counter(reg, "dna_exchange_down_bytes_total"); got != uint64(rep.FrameBytes) {
		t.Errorf("down bytes = %d, want %d", got, rep.FrameBytes)
	}
	// The codec's metrics: one compress booked by the sender, one
	// decompress booked by the hardened receive path.
	if got := counter(reg, "dna_codec_calls_total", "codec", "dnax", "op", "compress"); got != 1 {
		t.Errorf("codec compress calls = %d, want 1", got)
	}
	if got := counter(reg, "dna_codec_calls_total", "codec", "dnax", "op", "decompress"); got != 1 {
		t.Errorf("codec decompress calls = %d, want 1", got)
	}
}

// TestExchangeObservabilityRetries: injected transient faults surface as
// retry counters and span attributes.
func TestExchangeObservabilityRetries(t *testing.T) {
	ctx, reg, tr := obsCtx()
	store := NewFaultyStore(NewBlobStore(), FaultConfig{Rate: 0.3, Seed: 42})
	src := symbols(4096, 12)
	rep, err := Exchange(ctx, chaosClient, store, "dnax", src, ExchangeOptions{Retry: DefaultRetryPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.AttemptCount() <= 2 {
		t.Skipf("seed produced no retries (attempts=%d); pick another seed", rep.AttemptCount())
	}

	wantRetries := uint64(rep.AttemptCount() - 2) // 2 ops, first attempt each is free
	gotRetries := counter(reg, "dna_exchange_retries_total", "op", "put") +
		counter(reg, "dna_exchange_retries_total", "op", "get")
	if gotRetries != wantRetries {
		t.Errorf("retries = %d, want %d", gotRetries, wantRetries)
	}
	// Span attempt attributes must agree with the report's traces.
	for _, rec := range tr.Records() {
		if rec.Name != "exchange.put" && rec.Name != "exchange.get" {
			continue
		}
		var attempts int
		for _, a := range rec.Attrs {
			if a.Key == "attempts" {
				attempts, _ = a.Value.(int)
			}
		}
		for _, opTr := range rep.Traces {
			if "exchange."+opTr.Op == rec.Name && attempts != opTr.Attempts {
				t.Errorf("%s span attempts = %d, trace says %d", rec.Name, attempts, opTr.Attempts)
			}
		}
	}
}

// TestExchangeObservabilityExhaustion: a store that always fails books a
// transient op outcome and an error exchange outcome.
func TestExchangeObservabilityExhaustion(t *testing.T) {
	ctx, reg, _ := obsCtx()
	store := NewFaultyStore(NewBlobStore(), FaultConfig{Rate: 1, Seed: 3})
	_, err := Exchange(ctx, chaosClient, store, "dnax", symbols(512, 13), ExchangeOptions{
		Retry: RetryPolicy{MaxRetries: 2, BaseMS: 10, Seed: 1},
	})
	if err == nil {
		t.Fatal("want exhaustion error")
	}
	if got := counter(reg, "dna_exchange_ops_total", "op", "put", "outcome", "transient"); got != 1 {
		t.Errorf("put transient = %d, want 1", got)
	}
	if got := counter(reg, "dna_exchange_total", "outcome", "error"); got != 1 {
		t.Errorf("exchange error = %d, want 1", got)
	}
	if got := counter(reg, "dna_exchange_attempts_total", "op", "put"); got != 3 {
		t.Errorf("put attempts = %d, want 3", got)
	}
}

// TestExchangeBlocksMetricsOneSeriesPerOp: block exchanges run the same
// pipeline as the one-frame exchange, so they count under
// dna_exchange_total and the cloud.exchange span, and label every op
// metric and op span with the bare op. Distinct blob names must not mint
// new series; the piece rides on the op span's blob attribute instead.
func TestExchangeBlocksMetricsOneSeriesPerOp(t *testing.T) {
	ctx, reg, tr := obsCtx()
	store := NewFaultyStore(NewBlobStore(), FaultConfig{Rate: 0.3, Seed: 5})
	const exchanges, blocks = 3, 8
	for i := 0; i < exchanges; i++ {
		if _, err := ExchangeBlocks(ctx, chaosClient, store, "dnax", symbols(blocks*500, int64(i)), BlockExchangeOptions{
			ExchangeOptions: ExchangeOptions{Blob: fmt.Sprintf("seq-%d", i), Retry: DefaultRetryPolicy(), Cleanup: true},
			Block:           compress.BlockOptions{BlockSize: 500, Jobs: 2},
		}); err != nil {
			t.Fatal(err)
		}
	}

	opSeries, outcomeSeries := map[string]bool{}, map[string]bool{}
	for _, op := range []string{"put", "get", "delete"} {
		opSeries[fmt.Sprintf("op=%q", op)] = true
		for _, outcome := range []string{"ok", "canceled", "transient", "permanent"} {
			outcomeSeries[fmt.Sprintf("op=%q,outcome=%q", op, outcome)] = true
		}
	}
	allowed := map[string]map[string]bool{
		"dna_exchange_ops_total":      outcomeSeries,
		"dna_exchange_attempts_total": opSeries,
		"dna_exchange_retries_total":  opSeries,
		"dna_exchange_backoff_ms":     opSeries,
	}
	seen := 0
	for _, fam := range reg.Snapshot() {
		want, ok := allowed[fam.Name]
		if !ok {
			continue
		}
		seen++
		var stray []string
		for _, s := range fam.Series {
			if !want[s.Labels] {
				stray = append(stray, s.Labels)
			}
		}
		if len(stray) > 0 {
			t.Errorf("%s: %d of %d series label more than the bare op, first {%s}", fam.Name, len(stray), len(fam.Series), stray[0])
		}
	}
	if seen != len(allowed) {
		t.Fatalf("saw %d of the %d op metric families", seen, len(allowed))
	}
	if got := counter(reg, "dna_exchange_total", "outcome", "ok"); got != exchanges {
		t.Errorf("dna_exchange_total{outcome=ok} = %d, want %d", got, exchanges)
	}

	roots, blobs := 0, map[string]bool{}
	for _, rec := range tr.Records() {
		switch rec.Name {
		case "cloud.exchange":
			roots++
			if got := attr(rec, "blocks"); got != blocks {
				t.Errorf("cloud.exchange blocks = %v, want %d", got, blocks)
			}
		case "exchange.put", "exchange.get", "exchange.delete":
			blob, _ := attr(rec, "blob").(string)
			if blob == "" {
				t.Errorf("%s span carries no blob attribute", rec.Name)
			}
			blobs[blob] = true
		default:
			t.Errorf("unexpected span %q", rec.Name)
		}
	}
	if roots != exchanges {
		t.Errorf("%d cloud.exchange spans, want %d", roots, exchanges)
	}
	if want := exchanges * (1 + blocks); len(blobs) != want {
		t.Errorf("op spans name %d distinct blobs, want %d", len(blobs), want)
	}
}

// TestExchangeBlocksDecodesCountInCallerRegistry: the receiving VM's
// block decodes count in the registry the exchange's context carries, next
// to the blocks the sender sealed, and leave the default registry alone.
func TestExchangeBlocksDecodesCountInCallerRegistry(t *testing.T) {
	ctx, reg, _ := obsCtx()
	defaultDecoded := counter(obs.Default(), "dna_block_decoded_total", "codec", "dnax")
	rep, err := ExchangeBlocks(ctx, chaosClient, NewBlobStore(), "dnax", symbols(8*500, 13), BlockExchangeOptions{
		Block: compress.BlockOptions{BlockSize: 500},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Blocks != 8 {
		t.Fatalf("exchange split into %d blocks, want 8", rep.Blocks)
	}
	if got := counter(reg, "dna_block_sealed_total", "codec", "dnax"); got != uint64(rep.Blocks) {
		t.Errorf("dna_block_sealed_total = %d, want %d", got, rep.Blocks)
	}
	if got := counter(reg, "dna_block_decoded_total", "codec", "dnax"); got != uint64(rep.Blocks) {
		t.Errorf("dna_block_decoded_total = %d in the caller's registry, want %d", got, rep.Blocks)
	}
	if got := counter(obs.Default(), "dna_block_decoded_total", "codec", "dnax"); got != defaultDecoded {
		t.Errorf("default registry dna_block_decoded_total moved from %d to %d", defaultDecoded, got)
	}
}

func attr(rec obs.SpanRecord, key string) any {
	for _, a := range rec.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return nil
}
