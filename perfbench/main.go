// Command perfbench is the repository's benchmark. It runs one named
// workload against the real program, checks every output against the
// seeded plan, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload paper-small --seed 1 --seconds 10 --trace 0
//
// Workloads (see README.md for why each exists):
//
//   - paper-small: 2 closed-loop clients against an in-process dnacompd
//     (serve.NewServer on loopback), 1-40 KiB sequences, compress then
//     decompress-and-verify; the pinned model routes them to gencompress
//     and ctw.
//   - archive-range: the same daemon storing ~32 archives of 256 KiB-1 MiB
//     as 64 KiB-block CXB1 containers on an 8-shard, replication-3 fleet;
//     98% Zipf-skewed range reads, 2% idempotent overwrites; all dnax.
//   - exchange: one client running cloud.ExchangeBlocks on 256 KiB-1 MiB
//     sequences into an 8-shard fleet with 5% transient faults and one
//     killed shard.
//
// --trace 0 prints the end-to-end metrics of an untraced run. --trace 1
// prints the per-layer metrics: an untraced and a traced load phase, a
// replay of the plan through each layer's public functions with spans
// recorded here, and testing.Benchmark probes of each codec the workload
// routes to.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"github.com/srl-nuces/ctxdna/internal/cloud"
	"github.com/srl-nuces/ctxdna/internal/core"
	"github.com/srl-nuces/ctxdna/internal/serve"

	// The codec registry dnacompd serves with.
	_ "github.com/srl-nuces/ctxdna/internal/compress/biocompress"
	_ "github.com/srl-nuces/ctxdna/internal/compress/ctw"
	_ "github.com/srl-nuces/ctxdna/internal/compress/dnacompress"
	_ "github.com/srl-nuces/ctxdna/internal/compress/dnapack"
	_ "github.com/srl-nuces/ctxdna/internal/compress/dnax"
	_ "github.com/srl-nuces/ctxdna/internal/compress/gencompress"
	_ "github.com/srl-nuces/ctxdna/internal/compress/gzipx"
	_ "github.com/srl-nuces/ctxdna/internal/compress/twobit"
	_ "github.com/srl-nuces/ctxdna/internal/compress/xm"
)

// Set-up repetitions per run; setup_s is the median of their CPU times.
// archive-range's set-up preloads ~20 MiB of bases, so it repeats less.
const (
	setupReps        = 61
	archiveSetupReps = 3
)

// settle collects the previous set-up's garbage and leaves the process idle
// for a moment, so the next set-up starts cold, as a daemon's start does,
// and no leftover work of the previous one is billed to it.
func settle() {
	runtime.GC()
	time.Sleep(25 * time.Millisecond)
}

// probeBenchtime bounds each testing.Benchmark probe of the traced run.
const probeBenchtime = "300ms"

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	model    string
}

func main() {
	testing.Init()
	var (
		o     options
		trace int
	)
	flag.StringVar(&o.workload, "workload", "", "workload to run: paper-small, archive-range or exchange")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics of an untraced run; 1: per-layer metrics")
	flag.StringVar(&o.model, "model", "perfbench/model.json", "pinned selection model")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = trace == 1
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	if err := flag.Set("test.benchtime", probeBenchtime); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one workload run and assembles its result.
func run(o options) (*result, error) {
	p, err := makePlan(o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	eng, err := serve.LoadModel(o.model)
	if err != nil {
		return nil, err
	}
	routes := planRoutes(p, eng)
	if err := checkRoutes(p.workload, routes); err != nil {
		return nil, fmt.Errorf("routing check: %w", err)
	}
	dur := time.Duration(o.seconds * float64(time.Second))
	var (
		vals map[string]float64
		acct accounting
	)
	switch p.workload {
	case "exchange":
		vals, acct, err = runExchangeWorkload(p, routes, o, dur)
	default:
		vals, acct, err = runServeWorkload(p, routes, o, dur)
	}
	if err != nil {
		return nil, err
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	metrics, unknown := fill(defs, vals)
	if len(unknown) > 0 {
		return nil, fmt.Errorf("undeclared metrics %v", unknown)
	}
	for _, e := range acct.errs {
		fmt.Fprintln(os.Stderr, "perfbench:", e)
	}
	return &result{
		Correct:   acct.failed+acct.mismatched == 0 && acct.replayErr == nil,
		Attempted: acct.attempted,
		Failed:    acct.failed + acct.mismatched,
		Metrics:   metrics,
	}, nil
}

// accounting is a run's outcome count: attempted operations, failed ones
// (errors and refusals), and completed ones whose output differed from the
// plan. A run with any failed or differing operation is not correct, so a
// change that turns slow calls into fast failures cannot pass as a gain.
type accounting struct {
	attempted, failed, mismatched int
	replayErr                     error
	errs                          []string
}

// planRoutes is the codec the pinned model picks for each compress the
// plan sends: per item for the serve workloads, per exchange over one full
// cycle of items and cloud.Grid() VMs for exchange.
func planRoutes(p *plan, eng *core.InferenceEngine) []string {
	if p.workload != "exchange" {
		routes := make([]string, len(p.items))
		for i, it := range p.items {
			routes[i] = eng.SelectCodec(it.compressCtx())
		}
		return routes
	}
	grid := cloud.Grid()
	cycle := len(p.items) * len(grid) / gcd(len(p.items), len(grid))
	routes := make([]string, cycle)
	for k := range routes {
		routes[k] = eng.SelectCodec(core.GatherContext(grid[k%len(grid)], len(p.items[k%len(p.items)].symbols)))
	}
	return routes
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func routeShares(routes []string) map[string]float64 {
	counts := map[string]int{}
	for _, r := range routes {
		counts[r]++
	}
	shares := make(map[string]float64, len(counts))
	for codec, n := range counts {
		shares[codec] = float64(n) / float64(len(routes))
	}
	return shares
}

// checkRoutes refuses a run whose plan the pinned model no longer routes
// as the workload is meant to be routed, so a routing change fails loudly
// instead of showing up as a timing change.
func checkRoutes(workload string, routes []string) error {
	shares := routeShares(routes)
	switch workload {
	case "paper-small":
		for codec, share := range shares {
			if codec != "gencompress" && codec != "ctw" {
				return fmt.Errorf("paper-small: %.1f%% of compresses go to %s; want gencompress and ctw only", 100*share, codec)
			}
		}
		for _, codec := range []string{"gencompress", "ctw"} {
			if shares[codec] < 0.25 {
				return fmt.Errorf("paper-small: %s takes %.1f%% of compresses; want at least 25%%", codec, 100*shares[codec])
			}
		}
	default:
		if shares["dnax"] != 1 {
			return fmt.Errorf("%s: %.1f%% of compresses go to dnax; want all (%v)", workload, 100*shares["dnax"], shares)
		}
	}
	return nil
}

// runServeWorkload runs paper-small or archive-range.
func runServeWorkload(p *plan, routes []string, o options, dur time.Duration) (map[string]float64, accounting, error) {
	client := newClient()
	defer client.CloseIdleConnections()
	reps := setupReps
	if p.workload == "archive-range" {
		reps = archiveSetupReps
	}
	// Set-up runs reps times, one environment alive at a time; the last
	// one serves the timed phase.
	var (
		env    *serveEnv
		setups []float64
	)
	for r := 0; r < reps; r++ {
		if env != nil {
			env.d.stop()
			env = nil
		}
		settle()
		var err error
		u := measure(func() { env, err = setupServe(p, o.model, o.seed, client) })
		if err != nil {
			return nil, accounting{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, u.cpu.Seconds())
	}
	defer env.d.stop()

	vals := map[string]float64{}
	if !o.trace {
		var t *tally
		u := measure(func() { t = runServeLoad(p, routes, env.d.url, client, dur) })
		bases := t.basesIn + t.basesOut
		outBits, outBases := t.outBits+env.preloadBits, t.outBases+env.preloadBases
		vals["setup_s"] = median(setups)
		if n := t.completed(); n > 0 {
			vals["cpu_ms_per_call"] = u.cpu.Seconds() * 1e3 / float64(n)
		}
		if bases > 0 {
			vals["cpu_ns_per_base"] = float64(u.cpu.Nanoseconds()) / float64(bases)
			vals["alloc_bytes_per_base"] = float64(u.alloc) / float64(bases)
		}
		if outBases > 0 {
			vals["bits_per_base"] = float64(outBits) / float64(outBases)
		}
		vals["peak_rss_mb"] = peakRSSMB()
		return vals, t.accounting(), nil
	}

	// Traced run. Phase A: untraced load, for wall-clock throughput, the
	// per-endpoint latencies and the residuals' base.
	a := runServeLoad(p, routes, env.d.url, client, dur)
	vals["wall.calls_per_s"] = float64(a.completed()) / dur.Seconds()
	vals["wall.seq_mb_per_s"] = float64(a.basesIn+a.basesOut) / dur.Seconds() / 1e6
	for _, ep := range []string{"compress", "decompress", "range"} {
		if xs := a.lat[ep]; len(xs) > 0 {
			vals["serve."+ep+"_p50_ms"] = quantile(xs, 0.5)
			vals["serve."+ep+"_p90_ms"] = quantile(xs, 0.9)
		}
	}
	// Phase B: the same traffic against a daemon whose trace sink makes
	// every request traced; its serve.queue spans give the queue wait.
	sink := &queueSink{}
	var store cloud.Store
	if env.fleet != nil {
		store = env.fleet
	}
	traced, err := startDaemon(env.eng, store, sink)
	if err != nil {
		return nil, accounting{}, err
	}
	b := runServeLoad(p, routes, traced.url, client, dur/2)
	traced.stop()
	vals["serve.queue_wait_p50_ms"] = median(sink.waitMS)
	if u := median(a.allLatencies()); u > 0 {
		vals["obs.trace_overhead_pct"] = 100 * (median(b.allLatencies())/u - 1)
	}
	acct := a.accounting()
	acct.attempted += b.attempted
	acct.failed += b.failed
	acct.mismatched += b.mismatched
	acct.errs = append(acct.errs, b.errs...)
	if sink.bad > 0 {
		acct.errs = append(acct.errs, fmt.Sprintf("%d trace lines did not parse", sink.bad))
	}

	// Phase C: replay through the layers.
	rec := &recorder{}
	shares := routeShares(routes)
	for _, codec := range []string{"gencompress", "ctw", "dnax"} {
		vals["core.route."+codec] = shares[codec]
	}
	if p.workload == "paper-small" {
		acct.replayErr = replaySmall(p, env.eng, rec)
	} else {
		// The daemon's own counters over a pass of range reads: blocks its
		// read path decoded per base returned (each block 64 KiB), and
		// replica operations per read.
		t := newTally()
		rc, err := rangePass(p, env, client, t)
		if err != nil {
			return nil, acct, err
		}
		acct.attempted += t.attempted
		acct.failed += t.failed
		acct.mismatched += t.mismatched
		acct.errs = append(acct.errs, t.errs...)
		if rc.returned > 0 {
			vals["compress.block.decoded_per_returned_base"] = rc.decodedBlocks * blockSize / float64(rc.returned)
		}
		if rc.reads > 0 {
			vals["cloud.fleet.replica_ops_per_op"] = float64(rc.replicaOps) / float64(rc.reads)
		}
		acct.replayErr = replayArchive(p, env, rec)
	}
	if acct.replayErr != nil {
		acct.errs = append(acct.errs, acct.replayErr.Error())
	}
	bd := rec.breakdown()
	for _, ep := range []string{"compress", "decompress", "range"} {
		vals["serve.residual."+ep+"_ms"] = bd.residual(ep, quantile(a.lat[ep], 0.5))
	}
	layerVals(bd, vals)

	// Phase D: testing.Benchmark probes of the codecs the plan routes to.
	if err := probeCodecs(p, routes, vals); err != nil {
		return nil, acct, err
	}
	return vals, acct, nil
}

// layerVals reads the replay's stage figures into vals.
func layerVals(bd breakdown, vals map[string]float64) {
	vals["seq.cleanse_ns_per_base"] = bd.perUnit("seq.cleanse")
	vals["seq.decode_ns_per_base"] = bd.perUnit("seq.decode")
	vals["core.select_ns"] = bd.medianNS("core.select")
	vals["compress.frame.seal_ns_per_byte"] = bd.perUnit("compress.frame.seal")
	vals["compress.frame.open_ns_per_byte"] = bd.perUnit("compress.frame.open")
	vals["compress.block.compress_ns_per_base"] = bd.perUnit("compress.block.compress")
	vals["compress.block.open_ns"] = bd.medianNS("compress.block.open")
	vals["compress.block.slice_ns"] = bd.medianNS("compress.block.slice")
	vals["cloud.fleet.put_p50_ms"] = bd.medianNS("cloud.fleet.put") / 1e6
	vals["cloud.fleet.get_p50_ms"] = bd.medianNS("cloud.fleet.get") / 1e6
}

// probeCodecs runs codecProbe for every codec the plan routes to (whole
// inputs for single-frame codecs, first blocks for the block workloads)
// and blockProbe where archives are block-compressed.
func probeCodecs(p *plan, routes []string, vals map[string]float64) error {
	if p.workload == "paper-small" {
		for _, codec := range []string{"gencompress", "ctw"} {
			if err := codecProbe(codec, firstRouted(p, routes, codec, true), vals); err != nil {
				return err
			}
		}
		return nil
	}
	if err := codecProbe("dnax", firstRouted(p, routes, "dnax", false), vals); err != nil {
		return err
	}
	return blockProbe(p.items[0].symbols, vals)
}

func (t *tally) accounting() accounting {
	return accounting{attempted: t.attempted, failed: t.failed, mismatched: t.mismatched, errs: t.errs}
}

// runExchangeWorkload runs exchange.
func runExchangeWorkload(p *plan, routes []string, o options, dur time.Duration) (map[string]float64, accounting, error) {
	var (
		env    *exchangeEnv
		setups []float64
	)
	for r := 0; r < setupReps; r++ {
		env = nil
		settle()
		var err error
		u := measure(func() { env, err = setupExchange(o.model, o.seed) })
		if err != nil {
			return nil, accounting{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, u.cpu.Seconds())
	}

	vals := map[string]float64{}
	a := runExchanges(env, p, dur, false)
	acct := accounting{attempted: a.attempted, failed: a.failed, mismatched: a.mismatched, errs: a.errs}
	if a.bases == 0 {
		return nil, acct, errors.New("no exchange completed")
	}
	if !o.trace {
		// An exchange compresses its bases and restores them again.
		moved := float64(2 * a.bases)
		vals["setup_s"] = median(setups)
		vals["cpu_ms_per_call"] = a.used.cpu.Seconds() * 1e3 / float64(a.completed())
		vals["cpu_ns_per_base"] = float64(a.used.cpu.Nanoseconds()) / moved
		vals["bits_per_base"] = 8 * float64(a.containerBytes) / float64(a.bases)
		vals["alloc_bytes_per_base"] = float64(a.used.alloc) / moved
		vals["peak_rss_mb"] = peakRSSMB()
		return vals, acct, nil
	}

	vals["wall.calls_per_s"] = float64(a.completed()) / a.busy.Seconds()
	vals["wall.seq_mb_per_s"] = float64(2*a.bases) / a.busy.Seconds() / 1e6
	vals["cloud.exchange_p50_ms"] = quantile(a.latMS, 0.5)
	vals["cloud.exchange_p90_ms"] = quantile(a.latMS, 0.9)
	vals["cloud.exchange.attempts_per_blob"] = float64(a.attempts) / float64(a.blobOps)
	vals["cloud.exchange.modeled_ms_per_mb"] = a.modeledMS / (float64(a.bases) / 1e6)
	vals["cloud.exchange.model_ratio"] = a.busy.Seconds() * 1e3 / a.modeledMS
	b := runExchanges(env, p, dur/2, true)
	vals["obs.trace_overhead_pct"] = 100 * (median(b.latMS)/median(a.latMS) - 1)
	acct.attempted += b.attempted
	acct.failed += b.failed
	acct.mismatched += b.mismatched
	acct.errs = append(acct.errs, b.errs...)

	rec := &recorder{}
	shares := routeShares(routes)
	for _, codec := range []string{"gencompress", "ctw", "dnax"} {
		vals["core.route."+codec] = shares[codec]
	}
	before := replicaOps(env.fleet)
	fleetOps, err := replayExchange(p, env, rec)
	acct.replayErr = err
	if err != nil {
		acct.errs = append(acct.errs, err.Error())
	}
	if fleetOps > 0 {
		vals["cloud.fleet.replica_ops_per_op"] = float64(replicaOps(env.fleet)-before) / float64(fleetOps)
	}
	bd := rec.breakdown()
	vals["cloud.exchange.residual_ms"] = bd.residual("exchange", quantile(a.latMS, 0.5))
	layerVals(bd, vals)
	if err := probeCodecs(p, routes, vals); err != nil {
		return nil, acct, err
	}
	return vals, acct, nil
}
