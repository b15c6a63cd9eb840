// Command dnacompd is the compression-as-a-service daemon: a long-running
// HTTP server that applies the paper's context-aware codec selection per
// request.
//
//	dnacompd -addr 127.0.0.1:8080 -model rules.json
//
// POST /compress takes FASTA or raw ACGT text plus the caller's declared
// exchange context as query parameters (ram_mb, cpu_mhz, bw_mbps,
// file_kb) and answers with a sealed armored frame compressed with the
// codec the trained decision tree picks for that context; ?codec= forces
// one, ?block_size= produces a seekable CXB1 container, and ?name= also
// retains the container server-side. POST /decompress restores any
// armored stream; GET /decompress?name=...&off=...&len=... range-reads a
// stored container, decoding only the overlapping blocks. /metrics,
// /debug/vars and /debug/pprof expose the daemon's observability.
//
// Without -model the daemon trains the same compact fallback model
// `ctxselect` uses (a synthetic corpus over the paper's four codecs),
// which takes a moment at startup; pass a model persisted with
// `ctxselect -save-model` for instant starts and answers identical to the
// offline CLI.
//
// Admission control is explicit: a bounded queue and a fixed worker pool
// (-workers, -queue), per-codec concurrency and backlog limits
// (-per-codec), and 429 + Retry-After when the queue or a codec is
// saturated. SIGTERM/SIGINT starts a graceful drain: /healthz turns 503,
// in-flight requests finish, then the process exits.
//
// With -fleet-shards N the named-container store moves onto a replicated
// shard fleet (cloud.Fleet): stored containers survive shard loss, a
// partial outage answers 503 + Retry-After only when the quorum is truly
// lost, and /metrics grows the dna_fleet_* health series.
//
//	dnacompd -model rules.json -fleet-shards 5 -fleet-replication 3
//
// Requests are traceable end to end: an inbound W3C Traceparent header
// (or ?trace=1) starts a per-request trace whose spans cross serve ->
// codec -> fleet replica under one trace ID; ?trace=1 returns the span
// tree inline and -trace <file> appends one JSON line per traced
// request. -recorder N sizes the flight recorder behind /debug/requests
// (last N requests with codec/shard/breaker attribution; 0 = 256,
// negative disables), and /debug/slo serves latency and availability burn
// rates with a verdict.
//
// The built-in deterministic load generator drives a daemon and prints a
// JSON report with full outcome accounting, latency percentiles, and an
// SLO verdict; its requests are tagged origin=loadgen and carry seeded
// traceparents so they stay distinguishable from organic traffic:
//
//	dnacompd -model rules.json -loadgen self -requests 64 -conc 8
//	dnacompd -loadgen http://127.0.0.1:8080 -requests 256 -conc 16 -seed 7
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"github.com/srl-nuces/ctxdna/internal/cloud"
	"github.com/srl-nuces/ctxdna/internal/core"
	"github.com/srl-nuces/ctxdna/internal/obs"
	"github.com/srl-nuces/ctxdna/internal/serve"

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

func main() { os.Exit(realMain()) }

// realMain carries the whole CLI so tests and main share one exit-code
// contract: 0 ok, 1 runtime failure, 2 flag/bind errors.
func realMain() int {
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address for the daemon")
		modelPath    = flag.String("model", "", "selection model JSON from `ctxselect -save-model` (default: train the compact fallback model at startup)")
		workers      = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		queueDepth   = flag.Int("queue", 0, "admission queue depth (0 = 4x workers); a full queue answers 429")
		perCodec     = flag.Int("per-codec", 0, "max workers running the same codec at once (0 = no extra limit)")
		maxBody      = flag.Int64("max-body", 0, "request body cap in bytes (0 = 64 MiB)")
		maxStored    = flag.Int("max-stored", 0, "named-container store cap (0 = 256)")
		retryAfter   = flag.Int("retry-after", 0, "Retry-After seconds on backpressure responses (0 = 1)")
		drainTimeout = flag.Duration("drain-timeout", 15*time.Second, "grace period for in-flight requests on SIGTERM")

		fleetShards      = flag.Int("fleet-shards", 0, "back the named-container store with a replicated shard fleet of this size (0 = in-process map)")
		fleetReplication = flag.Int("fleet-replication", 0, "replicas per stored container in -fleet-shards mode (0 = min(3, shards))")
		fleetFaultRate   = flag.Float64("fleet-fault-rate", 0, "per-shard transient fault rate in [0,1) for -fleet-shards mode")
		fleetSeed        = flag.Uint64("fleet-seed", 2015, "seed for fleet placement and per-shard fault schedules")

		tracePath = flag.String("trace", "", "append one JSON line per traced request (trace ID, endpoint, span tree) to this file")
		recorder  = flag.Int("recorder", 0, "flight-recorder capacity behind /debug/requests (0 = 256, negative disables)")

		loadgen  = flag.String("loadgen", "", "run the deterministic load generator instead of serving: a daemon URL, or \"self\" to drive an in-process daemon")
		requests = flag.Int("requests", 64, "load units to issue in -loadgen mode")
		conc     = flag.Int("conc", 8, "concurrent load workers in -loadgen mode")
		seed     = flag.Int64("seed", 2015, "seed deriving the -loadgen request plan")
		minBases = flag.Int("min-bases", 512, "minimum generated sequence length in -loadgen mode")
		maxBases = flag.Int("max-bases", 8192, "maximum generated sequence length in -loadgen mode")
	)
	flag.Parse()
	if *addr == "" {
		fmt.Fprintln(os.Stderr, "dnacompd: -addr must not be empty")
		flag.Usage()
		return 2
	}
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "dnacompd: unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		return 2
	}

	// A pure-URL loadgen run needs no engine of its own.
	if *loadgen != "" && *loadgen != "self" {
		return runLoadgen(*loadgen, *requests, *conc, *seed, *minBases, *maxBases, nil)
	}

	fleet, err := buildFleet(*fleetShards, *fleetReplication, *fleetFaultRate, *fleetSeed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dnacompd:", err)
		flag.Usage()
		return 2
	}
	engine, err := loadEngine(*modelPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dnacompd:", err)
		return 1
	}
	var traceSink *os.File
	if *tracePath != "" {
		traceSink, err = os.OpenFile(*tracePath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dnacompd: -trace:", err)
			return 2
		}
		defer traceSink.Close()
	}
	srv, err := serve.NewServer(serve.Config{
		Engine:            engine,
		Workers:           *workers,
		QueueDepth:        *queueDepth,
		PerCodec:          *perCodec,
		MaxBodyBytes:      *maxBody,
		MaxStored:         *maxStored,
		RetryAfterSeconds: *retryAfter,
		FleetStore:        fleet,
		RecorderSize:      *recorder,
		TraceSink:         sinkOrNil(traceSink),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dnacompd:", err)
		return 1
	}

	// The listener binds synchronously: a bad -addr is a usage error the
	// process reports before claiming to serve, not an async log line.
	bindAddr := *addr
	if *loadgen == "self" {
		bindAddr = "127.0.0.1:0"
	}
	ds, err := obs.NewDebugServer(bindAddr, srv.Handler())
	if err != nil {
		fmt.Fprintln(os.Stderr, "dnacompd: bind:", err)
		return 2
	}
	serveErr := make(chan error, 1)
	//lint:ignore goroutinebound the HTTP accept loop runs for the process lifetime; shutdown joins it through the serveErr channel
	go func() { serveErr <- ds.Serve() }()

	if *loadgen == "self" {
		code := runLoadgen(ds.URL(), *requests, *conc, *seed, *minBases, *maxBases, nil)
		shutdown(srv, ds, serveErr, *drainTimeout)
		return code
	}

	// Install the signal handler before announcing readiness: a SIGTERM
	// that lands right after the banner must start a graceful drain, not
	// hit the runtime's default handler and kill the process mid-request.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "dnacompd: serving on %s (workers=%d queue=%d)\n", ds.Addr(), cfgWorkers(*workers), cfgQueue(*workers, *queueDepth))
	select {
	case err := <-serveErr:
		// The listener died underneath us (port stolen, fd limit, ...).
		fmt.Fprintln(os.Stderr, "dnacompd: serve:", err)
		srv.BeginDrain()
		srv.Close()
		return 1
	case <-ctx.Done():
		stop()
		fmt.Fprintln(os.Stderr, "dnacompd: signal received, draining")
		shutdown(srv, ds, serveErr, *drainTimeout)
		fmt.Fprintln(os.Stderr, "dnacompd: drained, bye")
		return 0
	}
}

// shutdown runs the graceful-exit sequence whose ordering the serve
// package requires: refuse new work, drain the HTTP layer (in-flight
// handlers finish and their queued jobs complete), then stop the workers.
func shutdown(srv *serve.Server, ds *obs.DebugServer, serveErr <-chan error, grace time.Duration) {
	srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := ds.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "dnacompd: shutdown:", err)
	}
	<-serveErr
	srv.Close()
}

// buildFleet constructs the replicated store backing the named-container
// store in -fleet-shards mode. It returns a nil interface when fleet mode
// is off, so serve.Config.FleetStore stays unset (a typed-nil interface
// would read as "fleet configured"). The fleet shares the default metrics
// registry, so /metrics exposes the dna_fleet_* series alongside the
// daemon's own.
func buildFleet(shards, replication int, faultRate float64, seed uint64) (cloud.Store, error) {
	if shards <= 0 {
		if replication > 0 || faultRate > 0 {
			return nil, fmt.Errorf("-fleet-replication and -fleet-fault-rate need -fleet-shards > 0")
		}
		return nil, nil
	}
	if faultRate < 0 || faultRate >= 1 {
		return nil, fmt.Errorf("-fleet-fault-rate %v: want a rate in [0, 1)", faultRate)
	}
	f, err := cloud.NewFleet(cloud.FleetConfig{
		Shards:      cloud.DefaultShardSpecs(shards, faultRate, seed),
		Replication: replication,
		Seed:        seed,
		Registry:    obs.Default(),
	})
	if err != nil {
		return nil, err
	}
	return f, nil
}

// loadEngine loads the persisted model, or trains the ctxselect-parity
// fallback when none is given.
func loadEngine(path string) (*core.InferenceEngine, error) {
	if path != "" {
		return serve.LoadModel(path)
	}
	fmt.Fprintln(os.Stderr, "dnacompd: no -model given; training the compact fallback model (pass -model for instant starts)")
	return serve.TrainDefaultEngine()
}

// runLoadgen drives target with the seed-derived plan and prints the JSON
// accounting report. Exit 1 means the run itself surfaced failures —
// hard request errors or round-trip mismatches; 429 backpressure is
// expected behavior under overload and does not fail the run.
func runLoadgen(target string, requests, conc int, seed int64, minBases, maxBases int, reg *obs.Registry) int {
	rep, err := serve.RunLoad(context.Background(), serve.LoadOptions{
		BaseURL:     target,
		Units:       requests,
		Concurrency: conc,
		Seed:        seed,
		MinBases:    minBases,
		MaxBases:    maxBases,
		Registry:    reg,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dnacompd: loadgen:", err)
		return 1
	}
	out, merr := json.MarshalIndent(rep, "", "  ")
	if merr != nil {
		fmt.Fprintln(os.Stderr, "dnacompd: loadgen:", merr)
		return 1
	}
	fmt.Println(string(out))
	if rep.Failed > 0 || rep.Mismatches > 0 {
		fmt.Fprintf(os.Stderr, "dnacompd: loadgen: %d failed, %d mismatched\n", rep.Failed, rep.Mismatches)
		return 1
	}
	return 0
}

// sinkOrNil keeps serve.Config.TraceSink a true nil interface when no
// -trace file was opened (a typed-nil *os.File would read as "sink
// configured" and trace every request).
func sinkOrNil(f *os.File) io.Writer {
	if f == nil {
		return nil
	}
	return f
}

// cfgWorkers / cfgQueue echo the effective sizing the serve package will
// resolve, for the startup banner only.
func cfgWorkers(w int) int {
	if w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

func cfgQueue(w, q int) int {
	if q > 0 {
		return q
	}
	return 4 * cfgWorkers(w)
}
