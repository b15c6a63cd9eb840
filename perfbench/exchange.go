package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"github.com/srl-nuces/ctxdna/internal/cloud"
	"github.com/srl-nuces/ctxdna/internal/compress"
	"github.com/srl-nuces/ctxdna/internal/core"
	"github.com/srl-nuces/ctxdna/internal/obs"
	"github.com/srl-nuces/ctxdna/internal/serve"
)

// Exchange target: 8 shards, replication 3, seeded transient faults on
// every shard and one shard killed at set-up, so retries, breaker
// fast-fail and quorum with a dead replica run in every exchange.
const (
	exchangeFaultRate = 0.05
	exchangeContainer = "exchange"
	// verifyAttempts bounds the untimed read-back of an exchanged archive
	// through the faulty fleet.
	verifyAttempts = 16
)

type exchangeEnv struct {
	eng   *core.InferenceEngine
	fleet *cloud.Fleet
}

// setupExchange is the exchange workload's timed set-up: LoadModel,
// NewFleet and the shard kill.
func setupExchange(modelPath string, seed int64) (*exchangeEnv, error) {
	eng, err := serve.LoadModel(modelPath)
	if err != nil {
		return nil, err
	}
	fleet, err := cloud.NewFleet(cloud.FleetConfig{
		Shards:      cloud.DefaultShardSpecs(fleetShards, exchangeFaultRate, uint64(seed)),
		Replication: fleetReplication,
		Seed:        uint64(seed),
	})
	if err != nil {
		return nil, err
	}
	dead := fmt.Sprintf("shard-%02d", uint64(seed)%fleetShards)
	if !fleet.Kill(dead) {
		return nil, fmt.Errorf("no shard %s to kill", dead)
	}
	return &exchangeEnv{eng: eng, fleet: fleet}, nil
}

func exchangeOptions(it item) cloud.BlockExchangeOptions {
	return cloud.BlockExchangeOptions{
		ExchangeOptions: cloud.ExchangeOptions{
			Container: exchangeContainer,
			Blob:      it.name,
			Retry:     cloud.DefaultRetryPolicy(),
		},
		Block: compress.BlockOptions{BlockSize: blockSize},
	}
}

// exchangeTally is an exchange phase's accounting. Only the exchanges
// themselves are measured: busy is their summed wall time, which with one
// client is the phase's wall time minus the untimed read-back checks, and
// used is their summed CPU time and allocation.
type exchangeTally struct {
	attempted, failed, mismatched int
	latMS                         []float64
	busy                          time.Duration
	used                          usage
	bases, containerBytes         int64
	attempts, blobOps             int
	modeledMS                     float64
	errs                          []string
}

// completed is the number of exchanges that returned without error.
func (t *exchangeTally) completed() int { return t.attempted - t.failed }

func (t *exchangeTally) note(format string, args ...any) {
	if len(t.errs) < 8 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}

// runExchanges runs exchanges back to back for dur, one client. Exchange k
// moves items[k mod len] from client VM cloud.Grid()[k mod 32] with the
// codec the pinned model picks for the gathered context. With traced set,
// each exchange runs under a fresh obs tracer (the program's own spans).
func runExchanges(env *exchangeEnv, p *plan, dur time.Duration, traced bool) *exchangeTally {
	t := &exchangeTally{}
	grid := cloud.Grid()
	deadline := time.Now().Add(dur)
	for k := 0; time.Now().Before(deadline); k++ {
		it := p.items[k%len(p.items)]
		vm := grid[k%len(grid)]
		ctx := context.Background()
		if traced {
			ctx = obs.WithTracer(ctx, obs.NewTracer(obs.System()))
		}
		t.attempted++
		var (
			rep   cloud.BlockExchangeReport
			err   error
			codec string
			d     time.Duration
		)
		u := measure(func() {
			t0 := time.Now()
			codec = env.eng.SelectCodec(core.GatherContext(vm, len(it.symbols)))
			rep, err = cloud.ExchangeBlocks(ctx, vm, env.fleet, codec, it.symbols, exchangeOptions(it))
			d = time.Since(t0)
		})
		t.used.cpu += u.cpu
		t.used.alloc += u.alloc
		t.busy += d
		t.latMS = append(t.latMS, float64(d.Nanoseconds())/1e6)
		if err != nil {
			t.failed++
			t.note("exchange %s: %v", it.name, err)
			continue
		}
		if codec != "dnax" {
			t.mismatched++
			t.note("exchange %s routed to %q, want dnax", it.name, codec)
		}
		t.bases += int64(len(it.symbols))
		t.containerBytes += int64(rep.ContainerBytes)
		t.attempts += rep.AttemptCount()
		t.blobOps += len(rep.Traces)
		t.modeledMS += rep.TotalTimeMS()
		if err := verifyExchange(env.fleet, it, rep.Blocks); err != nil {
			t.mismatched++
			t.note("exchange %s: %v", it.name, err)
		}
	}
	return t
}

// verifyExchange reads the archive an exchange left on the fleet back
// piece by piece, restores it and compares it with the plan byte for byte.
// The pieces are named as cloud.ExchangeBlocks names them.
func verifyExchange(fleet *cloud.Fleet, it item, blocks int) error {
	names := []string{it.name + ".cxb1"}
	for k := 0; k < blocks; k++ {
		names = append(names, fmt.Sprintf("%s.b%06d", it.name, k))
	}
	var container []byte
	var ops int
	for _, name := range names {
		piece, err := getRetrying(fleet, exchangeContainer, name, &ops)
		if err != nil {
			return fmt.Errorf("read back %s: %w", name, err)
		}
		container = append(container, piece...)
	}
	restored, _, err := compress.SafeDecompressAny("", container, compress.Limits{})
	if err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	if !bytes.Equal(restored, it.symbols) {
		return fmt.Errorf("restore differs from the plan (%d bases in, %d out)", len(it.symbols), len(restored))
	}
	return nil
}

// getRetrying reads a blob, retrying the transient failures the fleet's
// injected faults cause, and adds its attempts to *ops.
func getRetrying(fleet *cloud.Fleet, container, blob string, ops *int) ([]byte, error) {
	var err error
	for i := 0; i < verifyAttempts; i++ {
		var data []byte
		*ops++
		if data, err = fleet.Get(container, blob); err == nil {
			return data, nil
		}
		if !cloud.IsTransient(err) && !cloud.IsDegraded(err) {
			return nil, err
		}
	}
	return nil, err
}

// putRetrying writes a blob, retrying transient failures, and adds its
// attempts to *ops.
func putRetrying(ctx context.Context, fleet *cloud.Fleet, container, blob string, data []byte, ops *int) error {
	var err error
	for i := 0; i < verifyAttempts; i++ {
		*ops++
		if err = fleet.PutCtx(ctx, container, blob, data); err == nil {
			return nil
		}
		if !cloud.IsTransient(err) && !cloud.IsDegraded(err) {
			return err
		}
	}
	return err
}
