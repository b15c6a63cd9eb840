package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/srl-nuces/ctxdna/internal/cloud"
	"github.com/srl-nuces/ctxdna/internal/core"
	"github.com/srl-nuces/ctxdna/internal/obs"
	"github.com/srl-nuces/ctxdna/internal/serve"
)

// serveClients is the closed loop's client count: each client keeps one
// request in flight.
const serveClients = 2

// Fleet shape of the archive store: 8 shards, replication 3, no faults.
const (
	fleetShards      = 8
	fleetReplication = 3
)

// daemon is an in-process dnacompd: serve.NewServer with the daemon's
// default sizing, mounted on a loopback listener.
type daemon struct {
	srv      *serve.Server
	ds       *obs.DebugServer
	serveErr chan error
	url      string
}

func startDaemon(eng *core.InferenceEngine, fleet cloud.Store, sink io.Writer) (*daemon, error) {
	srv, err := serve.NewServer(serve.Config{Engine: eng, FleetStore: fleet, TraceSink: sink})
	if err != nil {
		return nil, err
	}
	ds, err := obs.NewDebugServer("127.0.0.1:0", srv.Handler())
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("bind: %w", err)
	}
	d := &daemon{srv: srv, ds: ds, serveErr: make(chan error, 1), url: ds.URL()}
	//lint:ignore goroutinebound the accept loop runs until stop shuts the listener down, and stop waits for it on serveErr
	go func() { d.serveErr <- ds.Serve() }()
	return d, nil
}

// stop drains the daemon the way dnacompd does on SIGTERM and waits for
// the accept loop and every worker to exit.
func (d *daemon) stop() {
	d.srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = d.ds.Shutdown(ctx) // a drain timeout still leaves Serve returning below
	<-d.serveErr
	d.srv.Close()
}

// newArchiveFleet builds the archive store: no injected faults, placement
// keyed by the seed.
func newArchiveFleet(seed int64) (*cloud.Fleet, error) {
	return cloud.NewFleet(cloud.FleetConfig{
		Shards:      cloud.DefaultShardSpecs(fleetShards, 0, uint64(seed)),
		Replication: fleetReplication,
		Seed:        uint64(seed),
	})
}

// serveEnv is one set-up serve workload: the model, the daemon and, for
// archive-range, its fleet.
type serveEnv struct {
	eng   *core.InferenceEngine
	fleet *cloud.Fleet
	d     *daemon
	// preloadBits and preloadBases count the armored bytes the preload
	// uploads returned, for bits_per_base.
	preloadBits, preloadBases int64
}

// setupServe is the serve workloads' timed set-up: LoadModel, NewServer and
// bind, plus NewFleet and the archive preload for archive-range.
func setupServe(p *plan, modelPath string, seed int64, client *http.Client) (*serveEnv, error) {
	eng, err := serve.LoadModel(modelPath)
	if err != nil {
		return nil, err
	}
	env := &serveEnv{eng: eng}
	var store cloud.Store
	if p.workload == "archive-range" {
		if env.fleet, err = newArchiveFleet(seed); err != nil {
			return nil, err
		}
		store = env.fleet
	}
	if env.d, err = startDaemon(eng, store, nil); err != nil {
		return nil, err
	}
	if p.workload == "archive-range" {
		for i := range p.items {
			out, err := uploadArchive(client, env.d.url, p.items[i])
			if err != nil {
				env.d.stop()
				return nil, fmt.Errorf("preload %s: %w", p.items[i].name, err)
			}
			env.preloadBits += 8 * int64(len(out))
			env.preloadBases += int64(len(p.items[i].symbols))
		}
	}
	return env, nil
}

// uploadArchive stores it under its name as a CXB1 container.
func uploadArchive(client *http.Client, base string, it item) ([]byte, error) {
	out, status, hdr, err := post(client, compressURL(base, it, true), it.body)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", status, bytes.TrimSpace(out))
	}
	if got := hdr.Get("X-Dnacomp-Codec"); got != "dnax" {
		return nil, fmt.Errorf("routed to %q, want dnax", got)
	}
	return out, nil
}

func compressURL(base string, it item, stored bool) string {
	u := fmt.Sprintf("%s/compress?ram_mb=%g&cpu_mhz=%g&bw_mbps=%g",
		base, it.ctx.RAMMB, it.ctx.CPUMHz, it.ctx.BandwidthMbps)
	if stored {
		u += fmt.Sprintf("&name=%s&block_size=%d", it.name, blockSize)
	}
	return u
}

func post(client *http.Client, url string, body []byte) ([]byte, int, http.Header, error) {
	return do(client, http.MethodPost, url, body)
}

func do(client *http.Client, method, url string, body []byte) ([]byte, int, http.Header, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, 0, nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return out, resp.StatusCode, resp.Header, err
}

func newClient() *http.Client {
	return &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: serveClients},
	}
}

// tally is a load phase's accounting. Every issued call is attempted;
// failed counts transport errors and non-200 statuses (refusals 429, 503
// and 507 included) and mismatched counts 200s whose bytes or routing
// differ from the plan.
type tally struct {
	attempted, failed, mismatched int
	lat                           map[string][]float64 // endpoint -> ms
	// basesIn counts bases compressed, basesOut bases restored (whole or
	// range); outBits and outBases give bits_per_base over the compresses.
	basesIn, basesOut int64
	outBits, outBases int64
	errs              []string
}

func newTally() *tally { return &tally{lat: map[string][]float64{}} }

// completed is the number of calls that returned 200.
func (t *tally) completed() int { return t.attempted - t.failed }

func (t *tally) add(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.mismatched += o.mismatched
	for ep, xs := range o.lat {
		t.lat[ep] = append(t.lat[ep], xs...)
	}
	t.basesIn += o.basesIn
	t.basesOut += o.basesOut
	t.outBits += o.outBits
	t.outBases += o.outBases
	if len(t.errs) < 8 {
		t.errs = append(t.errs, o.errs...)
	}
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.errs) < 8 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}

func (t *tally) mismatch(format string, args ...any) {
	t.mismatched++
	if len(t.errs) < 8 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}

func (t *tally) allLatencies() []float64 {
	var all []float64
	for _, xs := range t.lat {
		all = append(all, xs...)
	}
	return all
}

// call times one HTTP call and books its latency under endpoint. It
// returns the body only for a 200.
func (t *tally) call(client *http.Client, endpoint, method, url string, body []byte) ([]byte, http.Header, bool) {
	t.attempted++
	t0 := time.Now()
	out, status, hdr, err := do(client, method, url, body)
	t.lat[endpoint] = append(t.lat[endpoint], float64(time.Since(t0).Nanoseconds())/1e6)
	switch {
	case err != nil:
		t.fail("%s: %v", endpoint, err)
		return nil, nil, false
	case status != http.StatusOK:
		t.fail("%s: HTTP %d: %s", endpoint, status, bytes.TrimSpace(out))
		return nil, nil, false
	}
	return out, hdr, true
}

// runServeLoad drives the closed loop for the given duration: serveClients
// clients, each sending its next plan unit only after the previous one
// completed. It returns the merged tally.
func runServeLoad(p *plan, routes []string, base string, client *http.Client, dur time.Duration) *tally {
	var next atomic.Int64
	tallies := make([]*tally, serveClients)
	var wg sync.WaitGroup
	deadline := time.Now().Add(dur)
	for c := range tallies {
		tallies[c] = newTally()
		wg.Add(1)
		go func(t *tally) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if p.workload == "paper-small" {
					k := i % len(p.items)
					smallUnit(t, client, base, p.items[k], routes[k])
				} else {
					archiveCall(t, client, base, p, p.ops[i%len(p.ops)])
				}
			}
		}(tallies[c])
	}
	wg.Wait()
	total := newTally()
	for _, t := range tallies {
		total.add(t)
	}
	return total
}

// smallUnit is one paper-small unit: compress with the declared context,
// then decompress the returned frame and compare it with the plan.
func smallUnit(t *tally, client *http.Client, base string, it item, route string) {
	frame, hdr, ok := t.call(client, "compress", http.MethodPost, compressURL(base, it, false), it.body)
	if !ok {
		return
	}
	t.basesIn += int64(len(it.symbols))
	t.outBits += 8 * int64(len(frame))
	t.outBases += int64(len(it.symbols))
	if got := hdr.Get("X-Dnacomp-Codec"); got != route {
		t.mismatch("%s routed to %q, want %q", it.name, got, route)
	}
	restored, _, ok := t.call(client, "decompress", http.MethodPost, base+"/decompress", frame)
	if !ok {
		return
	}
	t.basesOut += int64(len(restored))
	if !bytes.Equal(restored, it.body) {
		t.mismatch("%s: restore differs from the plan (%d bases in, %d out)", it.name, len(it.body), len(restored))
	}
}

// archiveCall is one archive-range call: a range read compared with the
// plan, or an idempotent re-upload of the same archive.
func archiveCall(t *tally, client *http.Client, base string, p *plan, o op) {
	it := p.items[o.item]
	if o.overwrite {
		out, hdr, ok := t.call(client, "compress", http.MethodPost, compressURL(base, it, true), it.body)
		if !ok {
			return
		}
		t.basesIn += int64(len(it.symbols))
		t.outBits += 8 * int64(len(out))
		t.outBases += int64(len(it.symbols))
		if got := hdr.Get("X-Dnacomp-Codec"); got != "dnax" {
			t.mismatch("%s routed to %q, want dnax", it.name, got)
		}
		return
	}
	url := base + "/decompress?name=" + it.name + "&off=" + strconv.Itoa(o.off) + "&len=" + strconv.Itoa(o.n)
	window, _, ok := t.call(client, "range", http.MethodGet, url, nil)
	if !ok {
		return
	}
	t.basesOut += int64(len(window))
	if !bytes.Equal(window, it.body[o.off:o.off+o.n]) {
		t.mismatch("%s [%d,+%d): window differs from the plan", it.name, o.off, o.n)
	}
}

// queueSink is a serve.Config.TraceSink that keeps only the duration of
// each request's serve.queue span, the one stage the daemon alone can see.
type queueSink struct {
	mu     sync.Mutex
	waitMS []float64
	bad    int
}

func (s *queueSink) Write(line []byte) (int, error) {
	var rec struct {
		Trace []*obs.SpanTree `json:"trace"`
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := json.Unmarshal(line, &rec); err != nil {
		s.bad++
		return len(line), nil
	}
	for _, root := range rec.Trace {
		if q := root.Find("serve.queue"); q != nil {
			s.waitMS = append(s.waitMS, float64(q.DurationNS)/1e6)
		}
	}
	return len(line), nil
}
