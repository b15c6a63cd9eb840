package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/srl-nuces/ctxdna/internal/cloud"
	"github.com/srl-nuces/ctxdna/internal/compress"
	"github.com/srl-nuces/ctxdna/internal/core"
	"github.com/srl-nuces/ctxdna/internal/seq"
	"github.com/srl-nuces/ctxdna/internal/serve"
)

// Replay sample sizes: enough requests for stable stage medians, few
// enough that the replay takes a few seconds. paper-small and exchange
// replay one whole cycle of items, the mix their untraced p50 is taken
// over.
const (
	replaySmallUnits  = smallItems
	replayRanges      = 256
	replayOverwrites  = 6
	replayExchanges   = exchangeItems
	replayFleetPrefix = "replay-"
)

// span is one timed call into a layer. Spans of one replayed request share
// req; a stage span's parent is its request's root span.
type span struct {
	req        int
	name       string
	parent     int // index into recorder.spans, -1 for a request root
	start, end time.Time
	size       int64 // bases or bytes the call processed
}

// recorder keeps every span in memory until the replay ends.
type recorder struct {
	spans []span
	reqs  int
}

// request opens a request root span named after its endpoint and returns
// its index.
func (r *recorder) request(endpoint string) int {
	r.reqs++
	r.spans = append(r.spans, span{req: r.reqs, name: endpoint, parent: -1, start: time.Now()})
	return len(r.spans) - 1
}

func (r *recorder) finish(id int) { r.spans[id].end = time.Now() }

// stage records f as a child span of root.
func (r *recorder) stage(root int, name string, size int64, f func()) {
	s := span{req: r.spans[root].req, name: name, parent: root, size: size, start: time.Now()}
	f()
	s.end = time.Now()
	r.spans = append(r.spans, s)
}

// selfNS is each span's duration minus the part its children cover.
func (r *recorder) selfNS() []float64 {
	self := make([]float64, len(r.spans))
	for i, s := range r.spans {
		self[i] += float64(s.end.Sub(s.start).Nanoseconds())
		if s.parent >= 0 {
			self[s.parent] -= float64(s.end.Sub(s.start).Nanoseconds())
		}
	}
	return self
}

// breakdown is the replay's per-endpoint view: for every stage, its
// self-time summed per request, plus per-stage totals.
type breakdown struct {
	// perReq[endpoint][stage] lists, per request of that endpoint, the
	// stage's summed self-time in ms.
	perReq map[string]map[string][]float64
	// ns and size total each stage's self-time and processed size.
	ns, size map[string]float64
	// spanNS lists each stage's single-call self-times.
	spanNS map[string][]float64
}

func (r *recorder) breakdown() breakdown {
	self := r.selfNS()
	b := breakdown{
		perReq: map[string]map[string][]float64{},
		ns:     map[string]float64{},
		size:   map[string]float64{},
		spanNS: map[string][]float64{},
	}
	// Sum stage self-times per request, then file them by endpoint.
	type key struct {
		req   int
		stage string
	}
	sums := map[key]float64{}
	endpointOf := map[int]string{}
	var order []key
	for i, s := range r.spans {
		if s.parent < 0 {
			endpointOf[s.req] = s.name
			continue
		}
		k := key{s.req, s.name}
		if _, seen := sums[k]; !seen {
			order = append(order, k)
		}
		sums[k] += self[i]
		b.ns[s.name] += self[i]
		b.size[s.name] += float64(s.size)
		b.spanNS[s.name] = append(b.spanNS[s.name], self[i])
	}
	for _, k := range order {
		ep := endpointOf[k.req]
		if b.perReq[ep] == nil {
			b.perReq[ep] = map[string][]float64{}
		}
		b.perReq[ep][k.stage] = append(b.perReq[ep][k.stage], sums[k]/1e6)
	}
	return b
}

// residual is the untraced end-to-end p50 of endpoint minus the sum of its
// replayed stage medians: the time no replayed stage explains (HTTP,
// admission, handler and pipeline overhead).
func (b breakdown) residual(endpoint string, p50 float64) float64 {
	stages := b.perReq[endpoint]
	if len(stages) == 0 || p50 == 0 {
		return 0
	}
	sum := 0.0
	for _, per := range stages {
		sum += median(append([]float64(nil), per...))
	}
	return p50 - sum
}

// perUnit is a stage's total self-time per unit of processed size.
func (b breakdown) perUnit(stage string) float64 {
	if b.size[stage] == 0 {
		return 0
	}
	return b.ns[stage] / b.size[stage]
}

// medianNS is a stage's median single-call self-time.
func (b breakdown) medianNS(stage string) float64 {
	return median(append([]float64(nil), b.spanNS[stage]...))
}

// replaySmall replays paper-small units through the layers a compress and
// a decompress cross: Cleanse, SelectCodec, the codec, Seal; then Open, the
// codec, seq.Decode.
func replaySmall(p *plan, eng *core.InferenceEngine, rec *recorder) error {
	for i := 0; i < replaySmallUnits && i < len(p.items); i++ {
		it := p.items[i]
		var (
			symbols, payload, container, restored, ascii []byte
			codecName                                    string
			err                                          error
		)
		root := rec.request("compress")
		rec.stage(root, "seq.cleanse", int64(len(it.body)), func() { symbols, _ = serve.Cleanse(it.body) })
		rec.stage(root, "core.select", 0, func() {
			ctx := it.ctx
			ctx.FileSizeKB = float64(len(symbols)) / 1024
			codecName = eng.SelectCodec(ctx)
		})
		rec.stage(root, "compress.codec.compress", int64(len(symbols)), func() {
			var c compress.Codec
			if c, err = compress.New(codecName); err == nil {
				payload, _, err = c.Compress(symbols)
			}
		})
		if err != nil {
			return fmt.Errorf("replay %s: compress: %w", it.name, err)
		}
		rec.stage(root, "compress.frame.seal", int64(len(symbols)+len(payload)), func() {
			container = compress.Seal(codecName, symbols, payload)
		})
		rec.finish(root)

		root = rec.request("decompress")
		var fr compress.Frame
		rec.stage(root, "compress.frame.open", int64(len(container)), func() { fr, err = compress.Open(container) })
		if err != nil {
			return fmt.Errorf("replay %s: open: %w", it.name, err)
		}
		rec.stage(root, "compress.codec.decompress", int64(fr.Bases), func() {
			var c compress.Codec
			if c, err = compress.New(fr.Codec); err == nil {
				restored, _, err = c.Decompress(fr.Payload)
			}
		})
		if err != nil {
			return fmt.Errorf("replay %s: decompress: %w", it.name, err)
		}
		rec.stage(root, "seq.decode", int64(len(restored)), func() { ascii = seq.Decode(restored) })
		rec.finish(root)
		if !bytes.Equal(ascii, it.body) {
			return fmt.Errorf("replay %s: restore differs from the plan", it.name)
		}
	}
	return nil
}

// replayArchive replays archive-range calls through the layers: a range
// read is Fleet.GetCtx, OpenBlocks, Slice and seq.Decode; an overwrite is
// Cleanse, SelectCodec, BlockCompressObserved and Fleet.PutCtx. Overwrites
// go to a replay-only blob so the stored archives stay as uploaded.
func replayArchive(p *plan, env *serveEnv, rec *recorder) error {
	ctx := context.Background()
	ranges, overwrites := 0, 0
	for _, o := range p.ops {
		if ranges >= replayRanges && overwrites >= replayOverwrites {
			break
		}
		it := p.items[o.item]
		var err error
		if o.overwrite {
			if overwrites >= replayOverwrites {
				continue
			}
			overwrites++
			var (
				symbols, container []byte
				codecName          string
			)
			root := rec.request("compress")
			rec.stage(root, "seq.cleanse", int64(len(it.body)), func() { symbols, _ = serve.Cleanse(it.body) })
			rec.stage(root, "core.select", 0, func() { codecName = env.eng.SelectCodec(it.compressCtx()) })
			rec.stage(root, "compress.block.compress", int64(len(symbols)), func() {
				container, _, err = compress.BlockCompressObserved(nil, codecName, symbols, compress.BlockOptions{BlockSize: blockSize})
			})
			if err != nil {
				return fmt.Errorf("replay %s: block compress: %w", it.name, err)
			}
			rec.stage(root, "cloud.fleet.put", int64(len(container)), func() {
				err = env.fleet.PutCtx(ctx, "serve", replayFleetPrefix+it.name, container)
			})
			rec.finish(root)
			if err != nil {
				return fmt.Errorf("replay %s: fleet put: %w", it.name, err)
			}
			continue
		}
		if ranges >= replayRanges {
			continue
		}
		ranges++
		var (
			container, window, ascii []byte
			rd                       *compress.BlockReader
		)
		root := rec.request("range")
		rec.stage(root, "cloud.fleet.get", 0, func() { container, err = env.fleet.GetCtx(ctx, "serve", it.name) })
		if err != nil {
			return fmt.Errorf("replay %s: fleet get: %w", it.name, err)
		}
		rec.stage(root, "compress.block.open", int64(len(container)), func() { rd, err = compress.OpenBlocks(container, compress.Limits{}) })
		if err != nil {
			return fmt.Errorf("replay %s: open: %w", it.name, err)
		}
		rec.stage(root, "compress.block.slice", int64(o.n), func() { window, _, err = rd.Slice(o.off, o.n) })
		if err != nil {
			return fmt.Errorf("replay %s: slice: %w", it.name, err)
		}
		rec.stage(root, "seq.decode", int64(len(window)), func() { ascii = seq.Decode(window) })
		rec.finish(root)
		if !bytes.Equal(ascii, it.body[o.off:o.off+o.n]) {
			return fmt.Errorf("replay %s [%d,+%d): window differs from the plan", it.name, o.off, o.n)
		}
	}
	return nil
}

// rangeCounts is what the daemon's own counters show over a pass of range
// reads: blocks its read path decoded (dna_block_decoded_total) and
// replica operations its fleet store recorded.
type rangeCounts struct {
	reads         int
	returned      int64
	decodedBlocks float64
	replicaOps    uint64
}

// rangePass sends the plan's first replayRanges range reads, one at a
// time, through the daemon, and reads the daemon's block-decode counter
// from its /metrics endpoint and the fleet's replica-op counter around
// them. Every window is checked against the plan and booked in t.
func rangePass(p *plan, env *serveEnv, client *http.Client, t *tally) (rangeCounts, error) {
	var rc rangeCounts
	blocks0, err := scrapeCounter(client, env.d.url, "dna_block_decoded_total")
	if err != nil {
		return rc, err
	}
	ops0 := replicaOps(env.fleet)
	for _, o := range p.ops {
		if rc.reads >= replayRanges {
			break
		}
		if o.overwrite {
			continue
		}
		rc.reads++
		archiveCall(t, client, env.d.url, p, o)
	}
	blocks1, err := scrapeCounter(client, env.d.url, "dna_block_decoded_total")
	if err != nil {
		return rc, err
	}
	rc.returned = t.basesOut
	rc.decodedBlocks = blocks1 - blocks0
	rc.replicaOps = replicaOps(env.fleet) - ops0
	return rc, nil
}

// scrapeCounter sums every series of the named counter on the daemon's
// Prometheus /metrics page.
func scrapeCounter(client *http.Client, base, name string) (float64, error) {
	page, status, _, err := do(client, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("GET /metrics: HTTP %d", status)
	}
	return counterTotal(page, name)
}

// counterTotal sums the samples of metric name in a Prometheus text page.
func counterTotal(page []byte, name string) (float64, error) {
	total := 0.0
	for _, line := range strings.Split(string(page), "\n") {
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		series := line[:sp]
		if metric, _, _ := strings.Cut(series, "{"); metric != name {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return 0, fmt.Errorf("/metrics: %s: %w", series, err)
		}
		total += v
	}
	return total, nil
}

// replayExchange replays exchanges through the layers ExchangeBlocks
// drives: GatherContext and SelectCodec, BlockCompressObserved, one
// Fleet.PutCtx and one Fleet.GetCtx per piece, SafeDecompressAny.
// Transient fleet faults are retried as ExchangeBlocks retries them; every
// attempt counts as a fleet op.
func replayExchange(p *plan, env *exchangeEnv, rec *recorder) (fleetOps int, err error) {
	grid := cloud.Grid()
	ctx := context.Background()
	for k := 0; k < replayExchanges; k++ {
		it := p.items[k%len(p.items)]
		vm := grid[k%len(grid)]
		var (
			codecName           string
			container, restored []byte
		)
		root := rec.request("exchange")
		rec.stage(root, "core.select", 0, func() { codecName = env.eng.SelectCodec(core.GatherContext(vm, len(it.symbols))) })
		rec.stage(root, "compress.block.compress", int64(len(it.symbols)), func() {
			container, _, err = compress.BlockCompressObserved(nil, codecName, it.symbols, compress.BlockOptions{BlockSize: blockSize})
		})
		if err != nil {
			return fleetOps, fmt.Errorf("replay %s: block compress: %w", it.name, err)
		}
		pieces, err := splitContainer(container)
		if err != nil {
			return fleetOps, fmt.Errorf("replay %s: %w", it.name, err)
		}
		for j, piece := range pieces {
			blob := fmt.Sprintf("%s%s.%d", replayFleetPrefix, it.name, j)
			rec.stage(root, "cloud.fleet.put", int64(len(piece)), func() {
				err = putRetrying(ctx, env.fleet, exchangeContainer, blob, piece, &fleetOps)
			})
			if err != nil {
				return fleetOps, fmt.Errorf("replay %s: fleet put: %w", blob, err)
			}
		}
		var fetched []byte
		for j := range pieces {
			blob := fmt.Sprintf("%s%s.%d", replayFleetPrefix, it.name, j)
			var piece []byte
			rec.stage(root, "cloud.fleet.get", 0, func() { piece, err = getRetrying(env.fleet, exchangeContainer, blob, &fleetOps) })
			if err != nil {
				return fleetOps, fmt.Errorf("replay %s: fleet get: %w", blob, err)
			}
			fetched = append(fetched, piece...)
		}
		rec.stage(root, "compress.block.decompress", int64(len(it.symbols)), func() {
			restored, _, err = compress.SafeDecompressAny(codecName, fetched, compress.Limits{})
		})
		rec.finish(root)
		if err != nil {
			return fleetOps, fmt.Errorf("replay %s: restore: %w", it.name, err)
		}
		if !bytes.Equal(restored, it.symbols) {
			return fleetOps, fmt.Errorf("replay %s: restore differs from the plan", it.name)
		}
	}
	return fleetOps, nil
}

// splitContainer cuts a CXB1 container into the pieces ExchangeBlocks
// uploads: the manifest (header and index), then one frame per block.
func splitContainer(container []byte) ([][]byte, error) {
	rd, err := compress.OpenBlocks(container, compress.Limits{})
	if err != nil {
		return nil, err
	}
	index := rd.Index()
	pos := len(container)
	for _, e := range index {
		pos -= e.Length
	}
	pieces := [][]byte{container[:pos]}
	for _, e := range index {
		pieces = append(pieces, container[pos:pos+e.Length])
		pos += e.Length
	}
	return pieces, nil
}

// replicaOps totals the replica operations the fleet has recorded.
func replicaOps(f *cloud.Fleet) uint64 {
	var n uint64
	for _, sh := range f.Report().Shards {
		n += sh.Ops
	}
	return n
}
