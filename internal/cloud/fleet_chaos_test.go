package cloud

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/srl-nuces/ctxdna/internal/compress"
	"github.com/srl-nuces/ctxdna/internal/obs"
)

// chaosFleet builds the canonical chaos fleet: 5 heterogeneous shards,
// per-shard seeded fault schedules, replication 3, majority quorums, fake
// clock. Every call returns a byte-for-byte identical starting state.
func chaosFleet(t *testing.T, reg *obs.Registry) (*Fleet, *obs.Fake) {
	t.Helper()
	clock := obs.NewFake(time.Unix(1700000000, 0).UTC())
	if reg == nil {
		reg = obs.NewRegistry()
	}
	f, err := NewFleet(FleetConfig{
		Shards:      DefaultShardSpecs(5, 0.15, 99),
		Replication: 3,
		Seed:        42,
		Clock:       clock,
		Registry:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f, clock
}

// killOnFirstGet wraps a fleet so that the first download-phase op kills a
// shard: ExchangeBlocks joins the whole upload pool before the first Get,
// so this boundary is deterministic for any transfer-job count — the shard
// dies genuinely mid-exchange, after all pieces are replicated and before
// any is fetched.
type killOnFirstGet struct {
	*Fleet
	victim string
	once   sync.Once
}

func (s *killOnFirstGet) Get(container, blob string) ([]byte, error) {
	s.once.Do(func() { s.Fleet.Kill(s.victim) })
	return s.Fleet.Get(container, blob)
}

// TestFleetChaosDeterministicReports is the headline acceptance test:
// with a fixed fleet seed, killing k < replication shards mid-exchange
// yields byte-identical block-exchange reports across transfer jobs 1, 2
// and 8, with zero lost blobs — every piece still fetches through the
// degraded fleet and the reassembled container restores the exact source
// through SafeDecompressAny.
func TestFleetChaosDeterministicReports(t *testing.T) {
	src := symbols(6000, 21)
	run := func(jobs int) (BlockExchangeReport, *Fleet) {
		fleet, _ := chaosFleet(t, nil)
		victim := fleet.Replicas("exchange", "seq.cxb1")[0]
		store := &killOnFirstGet{Fleet: fleet, victim: victim}
		rep, err := ExchangeBlocks(context.Background(), chaosClient, store, "dnax", src, BlockExchangeOptions{
			ExchangeOptions: ExchangeOptions{Blob: "seq", Retry: DefaultRetryPolicy()},
			Block:           compress.BlockOptions{BlockSize: 500, Jobs: jobs},
		})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		return rep, fleet
	}

	baseRep, baseFleet := run(1)
	baseJSON, err := json.Marshal(baseRep)
	if err != nil {
		t.Fatal(err)
	}
	if baseRep.AttemptCount() <= len(baseRep.Traces) {
		t.Fatal("chaos fleet injected no retries — fault schedule not exercising the exchange")
	}
	for _, jobs := range []int{2, 8} {
		rep, _ := run(jobs)
		gotJSON, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, baseJSON) {
			t.Fatalf("jobs=%d report diverged from jobs=1:\n%s\nvs\n%s", jobs, gotJSON, baseJSON)
		}
	}

	// Zero lost blobs: with the victim still dead, every piece is readable
	// from the degraded fleet and the container restores the exact source.
	var reassembled []byte
	manifest, err := baseFleet.Get("exchange", "seq.cxb1")
	if err != nil {
		t.Fatalf("manifest unreadable through degraded fleet: %v", err)
	}
	reassembled = append(reassembled, manifest...)
	for k := 0; k < baseRep.Blocks; k++ {
		frame, err := baseFleet.Get("exchange", fmt.Sprintf("seq.b%06d", k))
		if err != nil {
			t.Fatalf("block %d lost after shard kill: %v", k, err)
		}
		reassembled = append(reassembled, frame...)
	}
	restored, _, err := compress.SafeDecompressAny("dnax", reassembled, compress.Limits{})
	if err != nil {
		t.Fatalf("degraded-fleet container does not restore: %v", err)
	}
	if !bytes.Equal(restored, src) {
		t.Fatal("degraded-fleet restore differs from source")
	}
}

// TestFleetChaosKillReviveCycles: repeated kill/revive cycles across
// exchanges — with breaker cooldowns ticked on the fake clock — never lose
// a blob while the dead-shard count stays below replication.
func TestFleetChaosKillReviveCycles(t *testing.T) {
	reg := obs.NewRegistry()
	fleet, clock := chaosFleet(t, reg)
	src := symbols(3000, 22)
	names := fleet.ShardNames()
	for cycle := 0; cycle < len(names); cycle++ {
		fleet.Kill(names[cycle])
		if cycle > 0 {
			fleet.Revive(names[cycle-1])
		}
		clock.Advance(45 * time.Second) // past breaker cooldown
		blob := fmt.Sprintf("cycle-%d", cycle)
		rep, err := ExchangeBlocks(context.Background(), chaosClient, fleet, "dnax", src, BlockExchangeOptions{
			ExchangeOptions: ExchangeOptions{Blob: blob, Retry: DefaultRetryPolicy()},
			Block:           compress.BlockOptions{BlockSize: 600, Jobs: 4},
		})
		if err != nil {
			t.Fatalf("cycle %d (dead %s): %v", cycle, names[cycle], err)
		}
		if rep.Blocks <= 0 {
			t.Fatalf("cycle %d produced no blocks", cycle)
		}
	}
	// The fleet observed real shard trouble and said so in metrics.
	snap := map[string]bool{}
	for _, fam := range reg.Snapshot() {
		snap[fam.Name] = true
	}
	for _, name := range []string{"dna_fleet_ops_total", "dna_fleet_shard_state", "dna_fleet_shard_error_ewma", "dna_fleet_breaker_transitions_total"} {
		if !snap[name] {
			t.Fatalf("metric family %s missing after chaos cycles; have %v", name, snap)
		}
	}
}

// TestFleetChaosQuorumLossAttribution: killing >= quorum shards of a
// 3-replica fleet surfaces a typed *DegradedError through the whole
// exchange stack, attributing each dead shard by name.
func TestFleetChaosQuorumLossAttribution(t *testing.T) {
	clock := obs.NewFake(time.Unix(1700000000, 0).UTC())
	fleet, err := NewFleet(FleetConfig{
		Shards:   DefaultShardSpecs(3, 0, 7),
		Seed:     42,
		Clock:    clock,
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	names := fleet.ShardNames()
	fleet.Kill(names[0])
	fleet.Kill(names[1])
	_, xerr := ExchangeBlocks(context.Background(), chaosClient, fleet, "dnax", symbols(1200, 23), BlockExchangeOptions{
		ExchangeOptions: ExchangeOptions{Blob: "doomed", Retry: RetryPolicy{MaxRetries: 1}},
		Block:           compress.BlockOptions{BlockSize: 400},
	})
	var deg *DegradedError
	if !errors.As(xerr, &deg) {
		t.Fatalf("quorum-loss exchange = %v, want *DegradedError in chain", xerr)
	}
	named := map[string]bool{}
	for _, sf := range deg.Failures {
		named[sf.Shard] = true
	}
	if !named[names[0]] || !named[names[1]] {
		t.Fatalf("degraded error attributes %v, want both %s and %s", named, names[0], names[1])
	}
	var down *ShardDownError
	if !errors.As(xerr, &down) {
		t.Fatalf("attribution does not unwrap to *ShardDownError: %v", xerr)
	}
}

// TestFleetChaosFlappingUnderRace: concurrent exchanges while a goroutine
// flaps shards up and down — no data race (run under -race via the fleet
// gate) and no lost blob once the flapping stops.
func TestFleetChaosFlappingUnderRace(t *testing.T) {
	reg := obs.NewRegistry()
	fleet, clock := chaosFleet(t, reg)
	names := fleet.ShardNames()
	stop := make(chan struct{})
	var flapper sync.WaitGroup
	flapper.Add(1)
	go func() {
		defer flapper.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			name := names[i%len(names)]
			fleet.Kill(name)
			clock.Advance(time.Second)
			fleet.Revive(name)
		}
	}()

	src := symbols(2000, 24)
	retry := ExchangeOptions{Retry: RetryPolicy{MaxRetries: 12, BaseMS: 1, CapMS: 4}}
	var wg sync.WaitGroup
	reps := make([]BlockExchangeReport, 4)
	errs := make([]error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opts := retry
			opts.Blob = fmt.Sprintf("flap-%d", i)
			reps[i], errs[i] = ExchangeBlocks(context.Background(), chaosClient, fleet, "dnax", src, BlockExchangeOptions{
				ExchangeOptions: opts,
				Block:           compress.BlockOptions{BlockSize: 500, Jobs: 2},
			})
		}(i)
	}
	wg.Wait()
	close(stop)
	flapper.Wait()

	// Flapping can legitimately cost quorum mid-write; what it must never
	// do is corrupt data or wedge the fleet. Once the storm is over and the
	// breakers it opened have cooled down, every blob that reported success
	// is still fully readable. Reads go through the exchange's own retry
	// schedule: a single Get can meet a seeded transient fault on every
	// replica that holds the blob, which is retryable, while a lost blob
	// fails every attempt.
	clock.Advance(45 * time.Second) // past breaker cooldown
	get := func(blob string) ([]byte, error) {
		var data []byte
		_, err := retryOp(context.Background(), retry, "get", piece{blob: blob}, func() error {
			var gerr error
			data, gerr = fleet.Get("exchange", blob)
			return gerr
		})
		return data, err
	}
	for i, err := range errs {
		if err != nil {
			if !IsTransient(err) && !IsDegraded(err) && !errors.Is(err, compress.ErrCorrupt) {
				t.Fatalf("exchange %d failed with untyped error: %v", i, err)
			}
			continue
		}
		manifest, gerr := get(fmt.Sprintf("flap-%d.cxb1", i))
		if gerr != nil {
			t.Fatalf("exchange %d succeeded but manifest unreadable after storm: %v", i, gerr)
		}
		reassembled := append([]byte(nil), manifest...)
		for k := 0; k < reps[i].Blocks; k++ {
			frame, gerr := get(fmt.Sprintf("flap-%d.b%06d", i, k))
			if gerr != nil {
				t.Fatalf("exchange %d succeeded but block %d unreadable after storm: %v", i, k, gerr)
			}
			reassembled = append(reassembled, frame...)
		}
		restored, _, derr := compress.SafeDecompressAny("dnax", reassembled, compress.Limits{})
		if derr != nil {
			t.Fatalf("exchange %d container does not restore after storm: %v", i, derr)
		}
		if !bytes.Equal(restored, src) {
			t.Fatalf("exchange %d restore differs from source after storm", i)
		}
	}
}
