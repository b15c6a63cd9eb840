// The load harness drives a running daemon the way ReqBench-style
// benchmarks drive serverless platforms: a fixed, seed-derived request
// plan executed by a bounded worker pool, with every outcome accounted —
// completed, rejected (429 backpressure) or failed — and end-to-end
// latencies summarized as percentiles. The plan (sequences, declared
// contexts, range probes) is generated up front from the seed, so two runs
// against equivalent servers issue byte-identical requests regardless of
// worker interleaving; only the measured latencies vary with the host.
package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"time"

	"github.com/srl-nuces/ctxdna/internal/core"
	"github.com/srl-nuces/ctxdna/internal/obs"
	"github.com/srl-nuces/ctxdna/internal/par"
	"github.com/srl-nuces/ctxdna/internal/seq"
	"github.com/srl-nuces/ctxdna/internal/synth"
)

// LoadOptions configures a load run. Zero fields take the documented
// defaults.
type LoadOptions struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8080". Required.
	BaseURL string
	// Units is the number of load units; each unit is one generated
	// sequence pushed through compress -> decompress(+verify), and every
	// RangeEvery-th unit additionally through a block-container range
	// read. <= 0 means 64.
	Units int
	// Concurrency is the worker count driving requests; <= 0 means 8.
	Concurrency int
	// Seed derives the whole request plan. Same seed, same requests.
	Seed int64
	// MinBases/MaxBases bound the generated sequence lengths;
	// <= 0 means 512 / 8192.
	MinBases, MaxBases int
	// RangeEvery: every k-th unit compresses into a CXB1 container and
	// probes a range read; <= 0 means 4. Negative-impossible; 1 = every
	// unit.
	RangeEvery int
	// BlockSize for the range-probe containers; <= 0 means 1024.
	BlockSize int
	// Contexts are cycled across units as the declared exchange context;
	// empty means a small built-in spread.
	Contexts []core.Context
	// Client issues the requests; nil means a fresh client with a 60 s
	// timeout.
	Client *http.Client
	// Clock measures latencies; nil means obs.System().
	Clock obs.Clock
	// Registry receives the harness-side latency histogram
	// (dna_loadgen_latency_ms) and outcome counters; nil means
	// obs.Default().
	Registry *obs.Registry
	// NoTrace suppresses the per-unit traceparent header. By default every
	// unit carries a deterministic seed-derived trace context, so loadgen
	// traffic shows up server-side as tagged, joinable traces; the plan is
	// generated identically either way.
	NoTrace bool
}

// loadUnit is one pre-generated plan entry.
type loadUnit struct {
	body    []byte // ASCII sequence to post
	symbols []byte // expected restored symbols
	ctx     core.Context
	ranged  bool
	off, n  int // range probe (when ranged)
	// traceparent is the unit's W3C trace context; every call in the unit
	// (compress, decompress, range) joins the same seed-derived trace.
	traceparent string
}

// LatencySummary condenses one run's per-call latencies.
type LatencySummary struct {
	Calls  int     `json:"calls"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
}

// LoadReport is the full accounting of a run. The invariant the harness
// enforces — and RunLoad double-checks before returning — is that nothing
// is dropped silently: every issued call lands in exactly one of
// Completed, Rejected or Failed.
type LoadReport struct {
	Units      int `json:"units"`
	Calls      int `json:"calls"`
	Completed  int `json:"completed"`
	Rejected   int `json:"rejected"` // 429 backpressure, reported not retried
	Failed     int `json:"failed"`   // transport errors and non-2xx/429 statuses
	Mismatches int `json:"mismatches"`
	// InputBases is the total sequence length successfully pushed through
	// /compress — the numerator of a throughput figure.
	InputBases int64          `json:"input_bases"`
	ByEndpoint map[string]int `json:"by_endpoint"`
	Latency    LatencySummary `json:"latency"`
	// SLO is the harness-side objective evaluation over this run (latency
	// and availability of the issued calls) and SLOVerdict its one-word
	// fold: "pass", or "fail:" plus the failing objective names. The
	// verdict is always non-empty.
	SLO        []obs.SLOStatus `json:"slo"`
	SLOVerdict string          `json:"slo_verdict"`
	Errors     []string        `json:"errors,omitempty"` // first few failure details
}

// RunLoad executes the seed-derived plan against BaseURL and returns the
// accounting. It returns an error only for harness-level faults (bad
// options, accounting mismatch); request failures are data, reported in
// the LoadReport.
func RunLoad(ctx context.Context, opts LoadOptions) (LoadReport, error) {
	if opts.BaseURL == "" {
		return LoadReport{}, fmt.Errorf("serve: loadgen needs a BaseURL")
	}
	opts = opts.withDefaults()
	clock := opts.Clock
	if clock == nil {
		clock = obs.System()
	}
	reg := obs.OrDefault(opts.Registry)

	units := planUnits(opts)
	if opts.NoTrace {
		for i := range units {
			units[i].traceparent = ""
		}
	}

	// The SLO engine brackets the run: the baseline evaluation anchors the
	// burn-rate window at the pre-run counter values, so the final
	// evaluation reports the burn of exactly this run's traffic.
	slo := obs.NewSLOEngine(clock, reg, obs.SLOConfig{}, loadgenObjectives(reg)...)
	slo.Evaluate()

	// Per-unit outcomes land in indexed slots so the aggregation below is
	// independent of scheduling order. A unit not started before ctx is
	// done books one failed call, so an interrupted run stays accounted.
	results := make([]unitResult, len(units))
	par.For(len(units), opts.Concurrency, func(i int) {
		if ctx.Err() != nil {
			results[i] = unitResult{calls: 1, failed: 1, errs: []string{"canceled before issue"}}
			return
		}
		results[i] = runUnit(ctx, opts.Client, clock, reg, opts.BaseURL, units[i])
	})

	rep := LoadReport{Units: len(units), ByEndpoint: map[string]int{}}
	var lat []float64
	for _, r := range results {
		rep.Calls += r.calls
		rep.Completed += r.completed
		rep.Rejected += r.rejected
		rep.Failed += r.failed
		rep.Mismatches += r.mismatches
		rep.InputBases += r.inputBases
		for ep, n := range r.byEndpoint {
			rep.ByEndpoint[ep] += n
		}
		lat = append(lat, r.latMS...)
		for _, e := range r.errs {
			if len(rep.Errors) < 8 {
				rep.Errors = append(rep.Errors, e)
			}
		}
	}
	rep.Latency = summarize(lat)
	for _, ms := range lat {
		reg.Histogram("dna_loadgen_latency_ms", "Harness-observed end-to-end request latency.",
			obs.DefMSBuckets()).Observe(ms)
	}
	reg.Counter("dna_loadgen_calls_total", "Calls issued by the load harness.", "outcome", "completed").Add(uint64(rep.Completed))
	reg.Counter("dna_loadgen_calls_total", "Calls issued by the load harness.", "outcome", "rejected").Add(uint64(rep.Rejected))
	reg.Counter("dna_loadgen_calls_total", "Calls issued by the load harness.", "outcome", "failed").Add(uint64(rep.Failed))
	reg.Counter("dna_loadgen_issued_total", "Calls issued by the load harness, all outcomes.").Add(uint64(rep.Calls))

	rep.SLO = slo.Evaluate()
	rep.SLOVerdict = obs.Verdict(rep.SLO)

	if rep.Completed+rep.Rejected+rep.Failed != rep.Calls {
		return rep, fmt.Errorf("serve: loadgen accounting broken: %d completed + %d rejected + %d failed != %d calls",
			rep.Completed, rep.Rejected, rep.Failed, rep.Calls)
	}
	return rep, nil
}

// loadgenObjectives declares the harness's own SLOs over its registry
// series: 95% of issued calls under 250 ms harness-observed latency, and
// 99% of issued calls not failing (429 backpressure is by design not a
// failure). Both thresholds sit on exported bucket bounds / counters so
// the evaluation is exact.
func loadgenObjectives(reg *obs.Registry) []obs.Objective {
	return []obs.Objective{
		{
			Name:   "loadgen_latency",
			Target: 0.95,
			Histogram: reg.Histogram("dna_loadgen_latency_ms",
				"Harness-observed end-to-end request latency.", obs.DefMSBuckets()),
			ThresholdMS: 250,
		},
		{
			Name:   "loadgen_availability",
			Target: 0.99,
			Total:  reg.Counter("dna_loadgen_issued_total", "Calls issued by the load harness, all outcomes."),
			Bad:    reg.Counter("dna_loadgen_calls_total", "Calls issued by the load harness.", "outcome", "failed"),
		},
	}
}

// withDefaults resolves every zero option to its documented default.
func (o LoadOptions) withDefaults() LoadOptions {
	opts := o
	if opts.Units <= 0 {
		opts.Units = 64
	}
	if opts.Concurrency <= 0 {
		opts.Concurrency = 8
	}
	if opts.MinBases <= 0 {
		opts.MinBases = 512
	}
	if opts.MaxBases <= opts.MinBases {
		opts.MaxBases = opts.MinBases + 7680
	}
	if opts.RangeEvery <= 0 {
		opts.RangeEvery = 4
	}
	if opts.BlockSize <= 0 {
		opts.BlockSize = 1024
	}
	if len(opts.Contexts) == 0 {
		opts.Contexts = []core.Context{
			{RAMMB: 768, CPUMHz: 1000, BandwidthMbps: 2},
			{RAMMB: 2048, CPUMHz: 2100, BandwidthMbps: 5},
			{RAMMB: 3584, CPUMHz: 2400, BandwidthMbps: 10},
			{RAMMB: 7168, CPUMHz: 3000, BandwidthMbps: 20},
		}
	}
	if opts.Client == nil {
		opts.Client = &http.Client{Timeout: 60 * time.Second}
	}
	return opts
}

// planUnits expands the seed into the full request plan. Everything that
// defines a request — sequence bytes, declared context, range probes — is
// fixed here, before any concurrency exists.
func planUnits(o LoadOptions) []loadUnit {
	opts := o.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	// Trace identities come from a dedicated seeded stream, not rng, so
	// adding tracing cannot perturb the generated sequences and contexts.
	ids := obs.NewSeededIDSource(uint64(opts.Seed) ^ 0x6c6f616467656e /* "loadgen" */)
	units := make([]loadUnit, opts.Units)
	for i := range units {
		n := opts.MinBases + rng.Intn(opts.MaxBases-opts.MinBases+1)
		p := synth.Profile{
			Length:     n,
			GC:         0.35 + float64(0.2*rng.Float64()),
			RepeatProb: 0.002,
			RepeatMin:  16,
			RepeatMax:  128,
		}
		symbols := p.Generate(opts.Seed + int64(i))
		u := loadUnit{
			body:        seq.Decode(symbols),
			symbols:     symbols,
			ctx:         opts.Contexts[i%len(opts.Contexts)],
			ranged:      i%opts.RangeEvery == 0,
			traceparent: obs.FormatTraceparent(ids.TraceID(), ids.SpanID()),
		}
		if u.ranged && n > 1 {
			u.off = rng.Intn(n - 1)
			u.n = 1 + rng.Intn(n-u.off-1+1)
			if u.off+u.n > n {
				u.n = n - u.off
			}
		}
		units[i] = u
	}
	return units
}

// unitResult is one unit's accounting.
type unitResult struct {
	calls, completed, rejected, failed, mismatches int
	inputBases                                     int64
	byEndpoint                                     map[string]int
	latMS                                          []float64
	errs                                           []string
}

// runUnit pushes one plan entry through the daemon: compress with the
// declared context, decompress-and-verify, and (for ranged units) a
// block-container range probe compared against the expected slice. A 429
// terminates the unit's remaining calls — the server asked us to back off
// — and is reported, never dropped.
func runUnit(ctx context.Context, client *http.Client, clock obs.Clock, reg *obs.Registry, base string, u loadUnit) unitResult {
	res := unitResult{byEndpoint: map[string]int{}}

	compressURL := fmt.Sprintf("%s/compress?ram_mb=%g&cpu_mhz=%g&bw_mbps=%g",
		base, u.ctx.RAMMB, u.ctx.CPUMHz, u.ctx.BandwidthMbps)
	if u.ranged {
		compressURL += fmt.Sprintf("&block_size=%d", blockSizeFor(u))
	}
	frame, status, err := res.call(ctx, client, clock, "compress", http.MethodPost, compressURL, u.traceparent, u.body)
	if err != nil || status != http.StatusOK {
		return res
	}
	res.inputBases += int64(len(u.body))

	restored, status, err := res.call(ctx, client, clock, "decompress", http.MethodPost, base+"/decompress", u.traceparent, frame)
	if err == nil && status == http.StatusOK && string(restored) != string(u.body) {
		res.mismatches++
		res.errs = append(res.errs, fmt.Sprintf("round trip mismatch: %d bases in, %d out", len(u.body), len(restored)))
	}
	if err != nil || status != http.StatusOK {
		return res
	}

	if u.ranged {
		url := fmt.Sprintf("%s/decompress?off=%d&len=%d", base, u.off, u.n)
		window, status, err := res.call(ctx, client, clock, "range", http.MethodPost, url, u.traceparent, frame)
		if err == nil && status == http.StatusOK {
			want := string(u.body[u.off : u.off+u.n])
			if string(window) != want {
				res.mismatches++
				res.errs = append(res.errs, fmt.Sprintf("range [%d,%d+%d) mismatch", u.off, u.off, u.n))
			}
		}
	}
	return res
}

// blockSizeFor keeps at least two blocks in ranged containers so the
// range probe actually exercises block selection.
func blockSizeFor(u loadUnit) int {
	bs := len(u.symbols) / 4
	if bs < 64 {
		bs = 64
	}
	return bs
}

// call issues one HTTP request, books its outcome and latency, and
// returns the body for successful calls. Every call is tagged as loadgen
// traffic, and carries the unit's trace context when one is set.
func (res *unitResult) call(ctx context.Context, client *http.Client, clock obs.Clock, endpoint, method, url, traceparent string, body []byte) ([]byte, int, error) {
	res.calls++
	res.byEndpoint[endpoint]++
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		res.failed++
		res.errs = append(res.errs, fmt.Sprintf("%s: %v", endpoint, err))
		return nil, 0, err
	}
	req.Header.Set("X-Dnacomp-Origin", "loadgen")
	if traceparent != "" {
		req.Header.Set("Traceparent", traceparent)
	}
	t0 := clock.Now()
	resp, err := client.Do(req)
	if err != nil {
		res.failed++
		res.errs = append(res.errs, fmt.Sprintf("%s: %v", endpoint, err))
		return nil, 0, err
	}
	out, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	res.latMS = append(res.latMS, float64(clock.Since(t0).Nanoseconds())/1e6)
	if rerr != nil {
		res.failed++
		res.errs = append(res.errs, fmt.Sprintf("%s: read body: %v", endpoint, rerr))
		return nil, resp.StatusCode, rerr
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		res.completed++
	case resp.StatusCode == http.StatusTooManyRequests:
		res.rejected++
	default:
		res.failed++
		res.errs = append(res.errs, fmt.Sprintf("%s: HTTP %d: %s", endpoint, resp.StatusCode, strings.TrimSpace(string(out))))
	}
	return out, resp.StatusCode, nil
}

// summarize sorts the latencies and reads the percentile points.
func summarize(lat []float64) LatencySummary {
	s := LatencySummary{Calls: len(lat)}
	if len(lat) == 0 {
		return s
	}
	sorted := append([]float64(nil), lat...)
	sort.Float64s(sorted)
	sum := 0.0
	for _, v := range sorted {
		sum += v
	}
	s.MeanMS = sum / float64(len(sorted))
	s.P50MS = percentile(sorted, 0.50)
	s.P90MS = percentile(sorted, 0.90)
	s.P99MS = percentile(sorted, 0.99)
	s.MaxMS = sorted[len(sorted)-1]
	return s
}

// percentile reads the nearest-rank percentile from sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(p*float64(len(sorted)-1)) + 0.5)
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
