package main

import (
	"bufio"
	"bytes"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef declares one printed metric. The same names, units and
// directions are declared in BENCHMARK.json; TestMetricTablesMatchBenchmarkJSON
// keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the untraced run's metrics. Every workload reports every one
// of them, so each is defined for all three traffic shapes and is never 0.
// Time is the process's CPU time, which the shared host's steal does not
// inflate; wall-clock figures are per-layer (wall.*, serve.*, cloud.*).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"cpu_ms_per_call", "ms", "lower"},
	{"cpu_ns_per_base", "ns/base", "lower"},
	{"bits_per_base", "bit/base", "lower"},
	{"alloc_bytes_per_base", "B/base", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the traced run's metrics. A workload whose traffic never
// reaches a layer reports that layer's metrics as 0.
var perLayer = []metricDef{
	{"wall.calls_per_s", "1/s", "higher"},
	{"wall.seq_mb_per_s", "MB/s", "higher"},
	{"serve.compress_p50_ms", "ms", "lower"},
	{"serve.compress_p90_ms", "ms", "lower"},
	{"serve.decompress_p50_ms", "ms", "lower"},
	{"serve.decompress_p90_ms", "ms", "lower"},
	{"serve.range_p50_ms", "ms", "lower"},
	{"serve.range_p90_ms", "ms", "lower"},
	{"serve.queue_wait_p50_ms", "ms", "lower"},
	{"serve.residual.compress_ms", "ms", "lower"},
	{"serve.residual.decompress_ms", "ms", "lower"},
	{"serve.residual.range_ms", "ms", "lower"},
	{"seq.cleanse_ns_per_base", "ns/base", "lower"},
	{"seq.decode_ns_per_base", "ns/base", "lower"},
	{"core.select_ns", "ns", "lower"},
	{"core.route.gencompress", "ratio", "higher"},
	{"core.route.ctw", "ratio", "higher"},
	{"core.route.dnax", "ratio", "higher"},
	{"compress.gencompress.compress_ns_per_base", "ns/base", "lower"},
	{"compress.gencompress.decompress_ns_per_base", "ns/base", "lower"},
	{"compress.gencompress.alloc_bytes_per_base", "B/base", "lower"},
	{"compress.gencompress.allocs_per_call", "count", "lower"},
	{"compress.gencompress.bits_per_base", "bit/base", "lower"},
	{"compress.gencompress.model_ratio", "ratio", "lower"},
	{"compress.ctw.compress_ns_per_base", "ns/base", "lower"},
	{"compress.ctw.decompress_ns_per_base", "ns/base", "lower"},
	{"compress.ctw.alloc_bytes_per_base", "B/base", "lower"},
	{"compress.ctw.allocs_per_call", "count", "lower"},
	{"compress.ctw.bits_per_base", "bit/base", "lower"},
	{"compress.ctw.model_ratio", "ratio", "lower"},
	{"compress.dnax.compress_ns_per_base", "ns/base", "lower"},
	{"compress.dnax.decompress_ns_per_base", "ns/base", "lower"},
	{"compress.dnax.alloc_bytes_per_base", "B/base", "lower"},
	{"compress.dnax.allocs_per_call", "count", "lower"},
	{"compress.dnax.bits_per_base", "bit/base", "lower"},
	{"compress.dnax.model_ratio", "ratio", "lower"},
	{"compress.frame.seal_ns_per_byte", "ns/B", "lower"},
	{"compress.frame.open_ns_per_byte", "ns/B", "lower"},
	{"compress.block.compress_ns_per_base", "ns/base", "lower"},
	{"compress.block.alloc_bytes_per_base", "B/base", "lower"},
	{"compress.block.open_ns", "ns", "lower"},
	{"compress.block.slice_ns", "ns", "lower"},
	{"compress.block.decoded_per_returned_base", "ratio", "lower"},
	{"cloud.fleet.put_p50_ms", "ms", "lower"},
	{"cloud.fleet.get_p50_ms", "ms", "lower"},
	{"cloud.fleet.replica_ops_per_op", "ratio", "lower"},
	{"cloud.exchange_p50_ms", "ms", "lower"},
	{"cloud.exchange_p90_ms", "ms", "lower"},
	{"cloud.exchange.attempts_per_blob", "ratio", "lower"},
	{"cloud.exchange.modeled_ms_per_mb", "ms/MB", "lower"},
	{"cloud.exchange.model_ratio", "ratio", "lower"},
	{"cloud.exchange.residual_ms", "ms", "lower"},
	{"obs.trace_overhead_pct", "%", "lower"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill returns the declared metric set with values taken from vals; a
// name missing from vals reads 0. A key of vals that defs does not declare
// is a bug in the benchmark, reported as an error by the caller.
func fill(defs []metricDef, vals map[string]float64) (map[string]metricValue, []string) {
	out := make(map[string]metricValue, len(defs))
	known := make(map[string]bool, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
		known[d.name] = true
	}
	var unknown []string
	for name := range vals {
		if !known[name] {
			unknown = append(unknown, name)
		}
	}
	sort.Strings(unknown)
	return out, unknown
}

// quantile reads the nearest-rank quantile q of xs (which it sorts in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs)-1) + 0.5)
	return xs[min(i, len(xs)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// usage is what a stretch of the run cost the process: CPU time (user and
// system, every thread) and bytes allocated.
type usage struct {
	cpu   time.Duration
	alloc uint64
}

// measure runs f and returns its usage.
func measure(f func()) usage {
	cpu0, alloc0 := cpuTime(), totalAlloc()
	f()
	return usage{cpu: cpuTime() - cpu0, alloc: totalAlloc() - alloc0}
}

// cpuTime is the CPU time the process has used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // fails only for a bad who or address
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
