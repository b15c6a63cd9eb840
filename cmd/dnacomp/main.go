// Command dnacomp compresses and decompresses DNA sequences with any codec
// in the registry.
//
// Compression accepts FASTA or raw ACGT text, cleanses it (headers,
// whitespace and non-ACGT characters are stripped, as the paper's pipeline
// does before single-sequence experiments), and writes an armored frame —
// the compress package container carrying the codec name, the original
// symbol count, and checksums over both the payload and the restored
// output:
//
//	dnacomp -codec dnax -o seq.dnax seq.fa
//	dnacomp -d -o restored.txt seq.dnax
//
// The frame records the codec, so decompression needs no flag, and
// decompression runs through the hardened compress.BlockReader: corrupted,
// truncated or tampered files are rejected with a checksum error instead
// of being silently mis-restored. Output files are written atomically
// (temp file + rename), so a crash mid-write never leaves a truncated file
// behind.
//
// Batch mode compresses many inputs concurrently through a bounded worker
// pool with a shared content-hash result cache, writing one container per
// input next to it (or under -o DIR):
//
//	dnacomp -batch -codec dnax -jobs 8 -o out/ *.fa
//
// Exchange mode simulates the paper's full exchange loop — compress on the
// client, upload to BLOB storage, download at the datacenter, decompress,
// verify — optionally against a fault-injected store with seeded transient
// failures and capped exponential retry backoff:
//
//	dnacomp -exchange -codec dnax -fault-rate 0.3 -retries 8 seq.fa
//
// With -fleet N the exchange runs against a replicated shard fleet instead
// of a single store: blobs are placed on a consistent-hash ring, written to
// -fleet-replication distinct shards, and read back through quorum with
// health-aware failover, so the loop survives per-shard faults. The fault
// rate then applies per shard (each with its own seeded schedule) rather
// than wrapping one store:
//
//	dnacomp -exchange -codec dnax -fleet 5 -fleet-replication 3 -fault-rate 0.2 seq.fa
//
// Block mode splits the input into fixed-size blocks compressed through a
// bounded worker pool into one seekable multi-block container (CXB1); -seek
// then decodes just a symbol range, touching only the overlapping blocks.
// A single frame is the one-block case, so -seek works on it too:
//
//	dnacomp -codec dnax -block-size 65536 -o seq.cxb seq.fa
//	dnacomp -d -seek 120000:512 seq.cxb
//
// Without -block-size the single-frame format is used, byte-identical with
// earlier releases. In exchange mode -block-size uploads each block as its
// own BLOB through a pipelined transfer pool with per-block retries.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"github.com/srl-nuces/ctxdna/internal/cloud"
	"github.com/srl-nuces/ctxdna/internal/compress"
	"github.com/srl-nuces/ctxdna/internal/obs"
	"github.com/srl-nuces/ctxdna/internal/par"
	"github.com/srl-nuces/ctxdna/internal/seq"
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

// legacyMagic headed the pre-armor container format: no checksums, no
// length, no tamper detection. It is recognized only to point users at
// recompression.
const legacyMagic = "CTXDNA1\n"

func main() {
	var (
		codecName  = flag.String("codec", "dnax", "codec for compression: "+strings.Join(compress.Names(), ", "))
		decompress = flag.Bool("d", false, "decompress instead of compress")
		output     = flag.String("o", "", "output path (default stdout); output directory in batch mode")
		quiet      = flag.Bool("q", false, "suppress the stats line")
		batch      = flag.Bool("batch", false, "compress every input file argument (one container each)")
		jobs       = flag.Int("jobs", runtime.GOMAXPROCS(0), "parallel workers in batch mode")
		exchange   = flag.Bool("exchange", false, "simulate the full cloud exchange loop (compress, upload, download, decompress, verify)")
		faultRate  = flag.Float64("fault-rate", 0, "transient-fault probability per storage op in exchange mode")
		retries    = flag.Int("retries", cloud.DefaultRetryPolicy().MaxRetries, "retry budget per storage op in exchange mode")
		faultSeed  = flag.Uint64("fault-seed", 2015, "seed for the fault schedule and retry jitter in exchange mode")
		fleetSize  = flag.Int("fleet", 0, "exchange against a replicated fleet of this many shards (0 = single store)")
		fleetRepl  = flag.Int("fleet-replication", 0, "replicas per blob in fleet exchange (0 = fleet default)")
		blockSize  = flag.Int("block-size", 0, "compress into a seekable multi-block container with this block size in bases (0 = single frame)")
		seekSpec   = flag.String("seek", "", "with -d: decode only off:len symbols, touching only the blocks they overlap (a single frame is one block)")
		metricsOut = flag.String("metrics", "", "write a Prometheus text metrics snapshot to this file on exit (- for stderr)")
		traceOut   = flag.String("trace", "", "write the span trace as JSON to this file on exit")
		pprofAddr  = flag.String("pprof", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. localhost:6060)")
	)
	flag.Parse()
	if err := validateFlags(*faultRate, *retries, *blockSize, *seekSpec, *decompress, *fleetSize, *fleetRepl); err != nil {
		fmt.Fprintln(os.Stderr, "dnacomp:", err)
		flag.Usage()
		os.Exit(2)
	}

	// Recording always targets the process-wide default registry; the flags
	// only add exporters, so behavior and output bytes never depend on them.
	ctx := context.Background()
	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer(obs.System())
		ctx = obs.WithTracer(ctx, tracer)
	}
	if *pprofAddr != "" {
		// The listener binds synchronously: an unbindable -pprof address is
		// a usage error reported before any work starts, not an async log
		// line racing the run.
		srv, err := obs.NewDebugServer(*pprofAddr, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dnacomp: debug server:", err)
			os.Exit(2)
		}
		//lint:ignore goroutinebound debug server intentionally serves for the whole process lifetime; the kernel reclaims it at exit
		go srv.Serve()
	}

	var err error
	switch {
	case *exchange:
		err = runExchange(ctx, *codecName, *faultRate, *retries, *faultSeed, *blockSize, *fleetSize, *fleetRepl, *quiet, flag.Args())
	case *batch:
		err = runBatch(*codecName, *decompress, *output, *quiet, *jobs, flag.Args())
	default:
		err = run(*codecName, *decompress, *output, *quiet, *blockSize, *seekSpec, flag.Args())
	}
	// Snapshots are written even after a failed run: the metrics of a
	// failure are exactly what a debugging user wants.
	if werr := exportObservability(*metricsOut, *traceOut, tracer); werr != nil && err == nil {
		err = werr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dnacomp:", err)
		os.Exit(1)
	}
}

// exportObservability writes the requested metrics / trace snapshots.
// "-" for metrics means stderr, keeping stdout clean for pipeline output.
func exportObservability(metricsOut, traceOut string, tracer *obs.Tracer) error {
	if metricsOut != "" {
		if metricsOut == "-" {
			if err := obs.Default().WritePrometheus(os.Stderr); err != nil {
				return fmt.Errorf("write metrics: %w", err)
			}
		} else if err := writeFileWith(metricsOut, obs.Default().WritePrometheus); err != nil {
			return fmt.Errorf("write metrics: %w", err)
		}
	}
	if traceOut != "" && tracer != nil {
		if err := writeFileWith(traceOut, tracer.WriteJSON); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
	}
	return nil
}

func writeFileWith(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// validateFlags rejects nonsensical exchange knobs up front: a fault rate
// is a probability, and a negative retry budget has no meaning. Failing
// fast with a usage error beats a fault schedule that silently never fires
// or a retry loop with undefined bounds.
func validateFlags(faultRate float64, retries, blockSize int, seekSpec string, decompress bool, fleetSize, fleetRepl int) error {
	if faultRate < 0 || faultRate > 1 {
		return fmt.Errorf("-fault-rate %v is not a probability: must be in [0,1]", faultRate)
	}
	if retries < 0 {
		return fmt.Errorf("-retries %d is negative: must be >= 0", retries)
	}
	if blockSize < 0 {
		return fmt.Errorf("-block-size %d is negative: must be >= 0 (0 = single frame)", blockSize)
	}
	if fleetSize < 0 {
		return fmt.Errorf("-fleet %d is negative: must be >= 0 (0 = single store)", fleetSize)
	}
	if fleetRepl < 0 {
		return fmt.Errorf("-fleet-replication %d is negative: must be >= 0 (0 = fleet default)", fleetRepl)
	}
	if fleetRepl > 0 && fleetSize == 0 {
		return fmt.Errorf("-fleet-replication needs -fleet: there is no fleet to replicate across")
	}
	if fleetRepl > fleetSize {
		return fmt.Errorf("-fleet-replication %d exceeds -fleet %d: a blob cannot have more replicas than shards", fleetRepl, fleetSize)
	}
	if fleetSize > 0 && faultRate >= 1 {
		return fmt.Errorf("-fault-rate %v with -fleet must be in [0,1): rate 1 makes every shard fail every op", faultRate)
	}
	if seekSpec != "" {
		if !decompress {
			return fmt.Errorf("-seek only applies with -d")
		}
		if _, _, err := parseSeek(seekSpec); err != nil {
			return err
		}
	}
	return nil
}

// parseSeek splits "off:len" into non-negative symbol counts.
func parseSeek(spec string) (off, n int, err error) {
	offStr, lenStr, ok := strings.Cut(spec, ":")
	if ok {
		off, err = strconv.Atoi(offStr)
		if err == nil {
			n, err = strconv.Atoi(lenStr)
		}
	}
	if !ok || err != nil || off < 0 || n < 0 {
		return 0, 0, fmt.Errorf("-seek %q: want off:len with non-negative integers", spec)
	}
	return off, n, nil
}

func run(codecName string, decompress bool, output string, quiet bool, blockSize int, seekSpec string, args []string) error {
	in, name, err := openInput(args)
	if err != nil {
		return err
	}
	defer in.Close()
	raw, err := io.ReadAll(in)
	if err != nil {
		return fmt.Errorf("reading %s: %w", name, err)
	}
	var result []byte
	switch {
	case decompress:
		result, err = doDecompress(raw, seekSpec, quiet)
	default:
		result, err = doCompress(codecName, blockSize, raw, quiet)
	}
	if err != nil {
		return err
	}
	return writeOutput(output, result)
}

// writeOutput sends result to stdout, or writes it atomically to path so a
// crash mid-write never leaves a truncated file where output was expected.
func writeOutput(path string, result []byte) error {
	if path == "" {
		_, err := os.Stdout.Write(result)
		return err
	}
	return atomicWriteFile(path, result, 0o644)
}

// atomicWriteFile writes data to a temp file in path's directory and
// renames it into place, so path only ever holds complete content.
func atomicWriteFile(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op once the rename has claimed it
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Chmod(perm); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmpName, path)
}

// runExchange pushes the cleansed input through the full exchange loop —
// compress on a modeled lab client, upload to (optionally fault-injected)
// BLOB storage, download at the datacenter, decompress and verify — and
// reports the modeled stage times and the retry trace. With fleetSize > 0
// the store is a replicated shard fleet and the fault rate applies per
// shard instead of wrapping a single store. ctx carries the tracer when
// -trace is set; metrics go to the default registry.
func runExchange(ctx context.Context, codecName string, faultRate float64, retries int, faultSeed uint64, blockSize, fleetSize, fleetRepl int, quiet bool, args []string) error {
	in, name, err := openInput(args)
	if err != nil {
		return err
	}
	defer in.Close()
	raw, err := io.ReadAll(in)
	if err != nil {
		return fmt.Errorf("reading %s: %w", name, err)
	}
	symbols, _ := serve.Cleanse(raw)
	if len(symbols) == 0 {
		return fmt.Errorf("input contains no ACGT bases")
	}

	var store cloud.Store
	var fleet *cloud.Fleet
	if fleetSize > 0 {
		// Fleet mode: each shard carries its own seeded fault schedule, so a
		// transient failure on one replica fails over instead of failing the
		// op. The registry is the process default so -metrics snapshots the
		// dna_fleet_* health series.
		fleet, err = cloud.NewFleet(cloud.FleetConfig{
			Shards:      cloud.DefaultShardSpecs(fleetSize, faultRate, faultSeed),
			Replication: fleetRepl,
			Seed:        faultSeed,
			Registry:    obs.Default(),
		})
		if err != nil {
			return fmt.Errorf("building fleet: %w", err)
		}
		store = fleet
	} else {
		store = cloud.NewBlobStore()
		if faultRate > 0 {
			store = cloud.NewFaultyStore(store, cloud.FaultConfig{Rate: faultRate, Seed: faultSeed})
		}
	}
	policy := cloud.DefaultRetryPolicy()
	policy.MaxRetries = retries
	policy.Seed = faultSeed
	client := cloud.Grid()[0] // a representative slow lab guest
	exOpts := cloud.ExchangeOptions{
		Blob:    filepath.Base(name),
		Retry:   policy,
		Cleanup: true,
	}
	var rep cloud.ExchangeReport
	if blockSize > 0 {
		// Block mode: each block travels as its own BLOB through a pipelined
		// transfer pool with an independent retry schedule per piece.
		brep, err := cloud.ExchangeBlocks(ctx, client, store, codecName, symbols, cloud.BlockExchangeOptions{
			ExchangeOptions: exOpts,
			Block:           compress.BlockOptions{BlockSize: blockSize},
		})
		if err != nil {
			return fmt.Errorf("exchange: %w", err)
		}
		if !quiet {
			fmt.Fprintf(os.Stderr, "dnacomp: block exchange: %d block(s) of %d bases, container %d bytes\n",
				brep.Blocks, blockSize, brep.ContainerBytes)
		}
		rep = brep.ExchangeReport
	} else {
		rep, err = cloud.Exchange(ctx, client, store, codecName, symbols, exOpts)
		if err != nil {
			return fmt.Errorf("exchange: %w", err)
		}
	}
	if !quiet {
		fmt.Fprintf(os.Stderr, "dnacomp: exchange via %s on %s: %d bases -> %d bytes (%.3f bits/base)\n",
			rep.Codec, client.Name, rep.OriginalBases, rep.CompressedBytes, rep.BitsPerBase)
		fmt.Fprintf(os.Stderr, "dnacomp: modeled ms: compress %.1f, upload %.1f, download %.1f, decompress %.1f, retry backoff %.1f (total %.1f)\n",
			rep.CompressMS, rep.UploadMS, rep.DownloadMS, rep.DecompressMS, rep.RetryWaitMS, rep.TotalTimeMS())
		for _, tr := range rep.Traces {
			fmt.Fprintf(os.Stderr, "dnacomp: %s: %d attempt(s)\n", tr.Op, tr.Attempts)
		}
		if fleet != nil {
			fr := fleet.Report()
			fmt.Fprintf(os.Stderr, "dnacomp: fleet: %d shard(s), replication %d (write quorum %d, read quorum %d)\n",
				len(fr.Shards), fr.Replication, fr.WriteQuorum, fr.ReadQuorum)
			for _, sh := range fr.Shards {
				fmt.Fprintf(os.Stderr, "dnacomp: fleet: %s: %s, %d op(s), %d failure(s), error ewma %.3f, modeled %.1f ms\n",
					sh.Name, sh.State, sh.Ops, sh.Failures, sh.ErrorEWMA, sh.ModeledMS)
			}
		}
		fmt.Fprintln(os.Stderr, "dnacomp: round trip verified byte-identical")
	}
	return nil
}

func openInput(args []string) (io.ReadCloser, string, error) {
	if len(args) == 0 || args[0] == "-" {
		return io.NopCloser(os.Stdin), "stdin", nil
	}
	f, err := os.Open(args[0])
	if err != nil {
		return nil, "", err
	}
	return f, args[0], nil
}

// doCompress seals the cleansed input through compress.Pack: one armored
// frame, or with a positive blockSize the seekable multi-block container,
// whose blocks compress concurrently into the same bytes for any worker
// count.
func doCompress(codecName string, blockSize int, raw []byte, quiet bool) ([]byte, error) {
	symbols, stats := serve.Cleanse(raw)
	if len(symbols) == 0 {
		return nil, fmt.Errorf("input contains no ACGT bases")
	}
	container, st, err := compress.Pack(nil, codecName, symbols, blockSize)
	if err != nil {
		return nil, err
	}
	if !quiet {
		// A frame reports its payload bytes, a container all its bytes.
		size, layout := len(container)-compress.Overhead(codecName), ""
		if blockSize > 0 {
			blocks := len(symbols)/blockSize + min(len(symbols)%blockSize, 1)
			size, layout = len(container), fmt.Sprintf(" in %d block(s) of %d", blocks, blockSize)
		}
		fmt.Fprintf(os.Stderr, "dnacomp: %s: %d bases -> %d bytes%s (%.3f bits/base, dropped %d non-ACGT), modeled %.1f ms / %.1f MB on the reference core\n",
			codecName, len(symbols), size, layout, compress.Ratio(len(symbols), size),
			stats.Ambiguous+stats.Other, float64(st.WorkNS)/1e6, float64(st.PeakMem)/(1<<20))
	}
	return container, nil
}

// runBatch compresses every input file with the chosen codec on at most
// jobs workers (par.For) sharing one content-hash result cache, so
// duplicate inputs are compressed once. Failures are aggregated per file; successful
// outputs are still written.
func runBatch(codecName string, decompress bool, outDir string, quiet bool, jobs int, args []string) error {
	if decompress {
		return fmt.Errorf("batch mode is compression-only; decompress files individually")
	}
	if len(args) == 0 {
		return fmt.Errorf("batch mode needs input file arguments")
	}
	if _, err := compress.New(codecName); err != nil {
		return err
	}
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
	}
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	jobs = min(jobs, len(args))

	cache := compress.NewCache()
	errs := make([]error, len(args))
	lines := make([]string, len(args))
	par.For(len(args), jobs, func(i int) {
		lines[i], errs[i] = batchOne(cache, codecName, outDir, args[i])
	})

	var failed []string
	for i, err := range errs {
		if err != nil {
			failed = append(failed, fmt.Sprintf("%s: %v", args[i], err))
			continue
		}
		if !quiet {
			fmt.Fprintln(os.Stderr, lines[i])
		}
	}
	if !quiet {
		hits, misses := cache.Counters()
		fmt.Fprintf(os.Stderr, "dnacomp: batch: %d/%d files ok (jobs=%d, cache %d hits / %d misses)\n",
			len(args)-len(failed), len(args), jobs, hits, misses)
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d of %d inputs failed: %s", len(failed), len(args), strings.Join(failed, "; "))
	}
	return nil
}

// batchOne compresses one input file into <name>.<codec>, beside the input
// or under outDir when given.
func batchOne(cache *compress.Cache, codecName, outDir, in string) (string, error) {
	raw, err := os.ReadFile(in)
	if err != nil {
		return "", err
	}
	symbols, _ := serve.Cleanse(raw)
	if len(symbols) == 0 {
		return "", fmt.Errorf("input contains no ACGT bases")
	}
	r, err := compress.CompressObserved(nil, cache, codecName, symbols)
	if err != nil {
		return "", err
	}
	outPath := in + "." + codecName
	if outDir != "" {
		outPath = filepath.Join(outDir, filepath.Base(in)+"."+codecName)
	}
	// r.Data is already a sealed armored frame; write it atomically so a
	// crashed batch never leaves truncated containers among good ones.
	if err := atomicWriteFile(outPath, r.Data, 0o644); err != nil {
		return "", err
	}
	return fmt.Sprintf("dnacomp: %s: %s: %d bases -> %d bytes (%.3f bits/base)",
		codecName, in, r.Bases, r.PayloadBytes, compress.Ratio(r.Bases, r.PayloadBytes)), nil
}

// doDecompress restores a CXA1 frame or a CXB1 container through one
// reader — a frame is the one-block case: the whole sequence, verified
// against every checksum, or with -seek only the off:len window, decoding
// only the blocks it overlaps.
func doDecompress(raw []byte, seekSpec string, quiet bool) ([]byte, error) {
	if bytes.HasPrefix(raw, []byte(legacyMagic)) {
		return nil, fmt.Errorf("legacy un-armored container (%q header): it carries no checksums; recompress the source with this version",
			strings.TrimSpace(legacyMagic))
	}
	r, err := compress.OpenBlocksObserved(nil, raw, compress.Limits{})
	if err != nil {
		// A container too corrupt to open books under "unknown" so failed
		// restores are still counted somewhere.
		compress.ObserveDecompress(nil, "unknown", len(raw), 0, compress.Stats{}, err)
		return nil, err
	}
	var (
		symbols []byte
		st      compress.Stats
		off, n  int
	)
	if seekSpec == "" {
		symbols, st, err = r.Decompress()
	} else {
		if off, n, err = parseSeek(seekSpec); err != nil {
			return nil, err
		}
		symbols, st, err = r.Slice(off, n)
	}
	compress.ObserveDecompress(nil, r.Codec(), len(raw), len(symbols), st, err)
	if err != nil {
		return nil, err
	}
	if !quiet {
		if seekSpec == "" {
			fmt.Fprintf(os.Stderr, "dnacomp: %s: restored %d bases from %d block(s) (checksums verified), modeled %.1f ms\n",
				r.Codec(), len(symbols), r.Blocks(), float64(st.WorkNS)/1e6)
		} else {
			fmt.Fprintf(os.Stderr, "dnacomp: %s: decoded %d of %d bases at offset %d (block size %d, touched blocks only), modeled %.1f ms\n",
				r.Codec(), n, r.Bases(), off, r.BlockSize(), float64(st.WorkNS)/1e6)
		}
	}
	return seq.Decode(symbols), nil
}
