// Package serve is the compression-as-a-service layer: a long-running
// HTTP daemon that applies the paper's context-aware codec selection per
// request. POST /compress takes a sequence plus the caller's declared
// exchange context (file size, RAM, CPU, bandwidth) and answers with a
// sealed armored frame — single CXA1 frame or seekable CXB1 multi-block
// container — compressed with the codec the trained CART/CHAID decision
// tree picks for that context. POST /decompress (and GET range reads over
// containers stored by name) opens either format once as a
// compress.BlockReader — a CXA1 frame is its one-block case — and restores
// the whole sequence or a range through it. A GET read of a stored
// container fetches only its header and index and then the frames it
// decodes. GET reads share one bounded compress.BlockCache of verified
// decoded blocks, keyed by the SHA-256 of each block frame, so a hot block
// is decoded once; POSTed containers bypass it.
//
// Concurrency model: requests are admitted into a bounded queue and
// executed by a fixed worker pool; a full queue answers 429 with
// Retry-After (backpressure, never silent drops), per-codec semaphores
// bound how many workers a single expensive codec can occupy, and a
// per-codec backlog bound answers 429 before a saturated codec's queue
// wait grows without bound. Every backpressure response — 429, draining
// 503, 507 store overflow, fleet-unavailable 503 — carries Retry-After.
//
// Named containers can live in an in-process map (the default) or, when
// Config.FleetStore is set, on a replicated cloud.Fleet — the daemon then
// survives shard loss mid-request, answering 503 + Retry-After only when
// the fleet truly lost its quorum.
// Handlers are pure functions of (request, model, registry): response
// bytes never depend on wall time, worker interleaving or queue state, so
// the repo's byte-determinism contract extends to the daemon. The wall
// clock enters only through an injected obs.Clock, and only into
// latency histograms.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/srl-nuces/ctxdna/internal/cloud"
	"github.com/srl-nuces/ctxdna/internal/compress"
	"github.com/srl-nuces/ctxdna/internal/core"
	"github.com/srl-nuces/ctxdna/internal/obs"
	"github.com/srl-nuces/ctxdna/internal/seq"
)

// Default sizing for the admission-control plane. All are overridable via
// Config; the defaults favor bounded memory over peak throughput.
const (
	// DefaultMaxBodyBytes caps an accepted request body (64 MiB).
	DefaultMaxBodyBytes = 64 << 20
	// DefaultRetryAfterSeconds is the backpressure hint on 429 responses.
	DefaultRetryAfterSeconds = 1
	// DefaultMaxStored caps how many named containers the store retains.
	DefaultMaxStored = 256
)

// Config wires a Server. The zero value of every field has a usable
// default except Engine, which is required.
type Config struct {
	// Engine selects a codec per declared context — the trained decision
	// tree from cmd/ctxselect wrapped in core.NewInferenceEngine.
	Engine *core.InferenceEngine
	// Registry receives all daemon metrics; nil means obs.Default().
	Registry *obs.Registry
	// Clock feeds the latency histograms; nil means obs.System(). Response
	// bytes never depend on it.
	Clock obs.Clock
	// Workers bounds concurrently-executing requests; <= 0 means
	// GOMAXPROCS.
	Workers int
	// QueueDepth bounds requests waiting for a worker; <= 0 means
	// 4 x Workers. A full queue answers 429 + Retry-After.
	QueueDepth int
	// PerCodec bounds how many workers may run the same codec at once;
	// <= 0 means Workers (no extra restriction).
	PerCodec int
	// PerCodecBacklog bounds admitted-but-unfinished requests per codec
	// (queued + waiting on the codec semaphore + executing); beyond it a
	// request answers 429 + Retry-After instead of camping on the queue
	// behind a saturated codec. <= 0 means QueueDepth + Workers.
	PerCodecBacklog int
	// MaxBodyBytes caps the request body; <= 0 means DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// Limits bounds untrusted decompression; the zero value applies the
	// compress package defaults.
	Limits compress.Limits
	// MaxStored caps the named-container store; <= 0 means
	// DefaultMaxStored.
	MaxStored int
	// DefaultContext fills context features the request leaves undeclared.
	// The zero value uses the paper-style lab client ctxselect defaults
	// (3584 MB RAM, 2400 MHz, 10 Mbps).
	DefaultContext core.Context
	// RetryAfterSeconds is the Retry-After hint on every backpressure
	// response (429/503/507); <= 0 means DefaultRetryAfterSeconds.
	RetryAfterSeconds int
	// FleetStore, when set, backs the named-container store with a
	// replicated *cloud.Fleet instead of the in-process map: stored
	// containers survive shard loss, partial outages degrade to 503 +
	// Retry-After only when the write/read quorum is truly lost, and an
	// unknown name is a plain 404. Any other store is a config error.
	FleetStore cloud.Store
	// FleetContainer names the fleet container holding stored containers;
	// "" means "serve". Only read when FleetStore is set.
	FleetContainer string
	// IDs generates W3C trace/span IDs for request-scoped tracing; nil
	// means a deterministic seeded source (seed 2015), so two servers with
	// default wiring and identical request orders export identical traces.
	IDs obs.IDSource
	// RecorderSize bounds the flight-recorder ring mounted at
	// /debug/requests; 0 means 256 records, < 0 disables the recorder.
	RecorderSize int
	// SLO declares the service-level objectives /debug/slo evaluates; nil
	// means DefaultObjectives (compress latency + availability) against
	// the server's registry.
	SLO []obs.Objective
	// SLOConfig tunes the SLO engine's burn-rate windows; the zero value
	// uses the obs defaults (5m fast / 1h slow, alert at 14.4).
	SLOConfig obs.SLOConfig
	// TraceSink, when set, receives one JSON line per traced request (the
	// span tree) — the -trace file sink in dnacompd. Setting it makes
	// every request traced.
	TraceSink io.Writer
}

// DefaultObjectives is the serve plane's stock SLO set against reg: 99% of
// compress requests under 250 ms (modeled on the injected clock) and
// 99.9% of all requests free of server-side errors.
func DefaultObjectives(reg *obs.Registry) []obs.Objective {
	return []obs.Objective{
		{
			Name:   "compress_latency",
			Target: 0.99,
			Histogram: reg.Histogram("dna_serve_latency_ms", "End-to-end request latency in milliseconds.",
				obs.DefMSBuckets(), "endpoint", "compress"),
			ThresholdMS: 250,
		},
		{
			Name:   "availability",
			Target: 0.999,
			Total:  reg.Counter("dna_serve_completed_total", "Requests completed, all endpoints and outcomes."),
			Bad:    reg.Counter("dna_serve_errors_total", "Requests that failed server-side (5xx excluding backpressure)."),
		},
	}
}

// job is one admitted unit of work: the worker runs it and sends exactly
// one response on done.
type job struct {
	codec string // per-codec semaphore key ("" = none resolved yet)
	run   func() *response
	done  chan *response
}

// response is the deterministic outcome of a handler's work function.
type response struct {
	status      int
	contentType string
	header      map[string]string
	body        []byte
}

// serveMetrics is the daemon's observability surface.
type serveMetrics struct {
	reg        *obs.Registry
	queueDepth *obs.Gauge
	inflight   *obs.Gauge
	completed  *obs.Counter
	errors     *obs.Counter
}

func newServeMetrics(reg *obs.Registry) serveMetrics {
	return serveMetrics{
		reg:        reg,
		queueDepth: reg.Gauge("dna_serve_queue_depth", "Requests waiting for a worker."),
		inflight:   reg.Gauge("dna_serve_inflight", "Requests currently executing on a worker."),
		completed:  reg.Counter("dna_serve_completed_total", "Requests completed, all endpoints and outcomes."),
		errors:     reg.Counter("dna_serve_errors_total", "Requests that failed server-side (5xx excluding backpressure)."),
	}
}

func (m serveMetrics) request(endpoint string, status int) {
	m.reg.Counter("dna_serve_requests_total", "Requests served, by endpoint and status code.",
		"endpoint", endpoint, "code", strconv.Itoa(status)).Inc()
}

func (m serveMetrics) rejected(reason string) {
	m.reg.Counter("dna_serve_rejected_total", "Requests rejected before reaching a worker, by reason.",
		"reason", reason).Inc()
}

func (m serveMetrics) latency(endpoint string, ms float64) {
	m.reg.Histogram("dna_serve_latency_ms", "End-to-end request latency in milliseconds.",
		obs.DefMSBuckets(), "endpoint", endpoint).Observe(ms)
}

func (m serveMetrics) selected(codec, source string) {
	m.reg.Counter("dna_serve_codec_selected_total", "Codec choices, by codec and selection source (tree or request).",
		"codec", codec, "source", source).Inc()
}

// Server is the daemon core. Construct with NewServer, mount Handler on a
// listener (obs.DebugServer in cmd/dnacompd, httptest in tests), and on
// the way down call BeginDrain, drain the HTTP layer, then Close.
type Server struct {
	cfg      Config
	engine   *core.InferenceEngine
	reg      *obs.Registry
	clock    obs.Clock
	met      serveMetrics
	queue    chan job
	wg       sync.WaitGroup
	draining atomic.Bool
	codecSem map[string]chan struct{}
	// codecPending counts admitted-but-unfinished requests per codec for
	// the PerCodecBacklog admission bound.
	codecPending map[string]*atomic.Int64

	// Request-scoped observability plane: deterministic trace IDs, the
	// flight-recorder ring behind /debug/requests, the SLO engine behind
	// /debug/slo, and the optional JSONL trace sink.
	ids      obs.IDSource
	recorder *obs.FlightRecorder
	slo      *obs.SLOEngine
	sinkMu   sync.Mutex // serializes TraceSink writes

	// fleet is Config.FleetStore when one is set; nil means the in-process
	// store below.
	fleet *cloud.Fleet
	// store holds named containers. In fleet mode the bytes live on the
	// fleet and the map entry (nil value) only reserves the name under the
	// MaxStored cap.
	storeMu sync.RWMutex
	store   map[string][]byte
	// blocks caches verified decoded blocks for GET reads of stored
	// containers, whose hot blocks repeat; POSTed containers bypass it.
	blocks *compress.BlockCache
}

// NewServer validates cfg, starts the worker pool and returns the ready
// Server.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("serve: Config.Engine is required (train or load a model first)")
	}
	fleet, isFleet := cfg.FleetStore.(*cloud.Fleet)
	if cfg.FleetStore != nil && !isFleet {
		return nil, fmt.Errorf("serve: Config.FleetStore is a %T, want a *cloud.Fleet", cfg.FleetStore)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4 * cfg.Workers
	}
	if cfg.PerCodec <= 0 || cfg.PerCodec > cfg.Workers {
		cfg.PerCodec = cfg.Workers
	}
	if cfg.PerCodecBacklog <= 0 {
		cfg.PerCodecBacklog = cfg.QueueDepth + cfg.Workers
	}
	if cfg.FleetContainer == "" {
		cfg.FleetContainer = "serve"
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.MaxStored <= 0 {
		cfg.MaxStored = DefaultMaxStored
	}
	if cfg.RetryAfterSeconds <= 0 {
		cfg.RetryAfterSeconds = DefaultRetryAfterSeconds
	}
	if cfg.DefaultContext == (core.Context{}) {
		cfg.DefaultContext = core.Context{RAMMB: 3584, CPUMHz: 2400, BandwidthMbps: 10}
	}
	reg := obs.OrDefault(cfg.Registry)
	s := &Server{
		cfg:          cfg,
		engine:       cfg.Engine,
		reg:          reg,
		clock:        cfg.Clock,
		met:          newServeMetrics(reg),
		queue:        make(chan job, cfg.QueueDepth),
		codecSem:     make(map[string]chan struct{}, len(compress.Names())),
		codecPending: make(map[string]*atomic.Int64, len(compress.Names())),
		fleet:        fleet,
		store:        make(map[string][]byte),
		blocks:       compress.NewBlockCache(reg),
	}
	if s.clock == nil {
		s.clock = obs.System()
	}
	s.ids = cfg.IDs
	if s.ids == nil {
		s.ids = obs.NewSeededIDSource(2015)
	}
	if cfg.RecorderSize >= 0 {
		s.recorder = obs.NewFlightRecorder(cfg.RecorderSize)
	}
	objectives := cfg.SLO
	if objectives == nil {
		objectives = DefaultObjectives(reg)
	}
	s.slo = obs.NewSLOEngine(s.clock, reg, cfg.SLOConfig, objectives...)
	// The per-codec semaphore and backlog maps are fixed at construction
	// (the codec registry is sealed after init), so workers index them
	// without a lock.
	for _, name := range compress.Names() {
		s.codecSem[name] = make(chan struct{}, cfg.PerCodec)
		s.codecPending[name] = &atomic.Int64{}
	}
	if fleet != nil {
		if err := fleet.CreateContainer(cfg.FleetContainer); err != nil && !errors.Is(err, cloud.ErrContainerExists) {
			return nil, fmt.Errorf("serve: fleet container %q: %w", cfg.FleetContainer, err)
		}
	}
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		//lint:ignore goroutinebound workers drain the job queue until Close closes it and are joined by Close's wg.Wait; their lifetime is the server's by design
		go s.worker()
	}
	return s, nil
}

// worker executes queued jobs until the queue closes. The per-codec
// semaphore is taken inside the worker, so an expensive codec saturating
// its limit backs work up into the queue (and ultimately into 429s)
// instead of occupying every worker.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.met.queueDepth.Add(-1)
		s.met.inflight.Add(1)
		if sem := s.codecSem[j.codec]; sem != nil {
			sem <- struct{}{}
			j.done <- j.run()
			<-sem
		} else {
			j.done <- j.run()
		}
		s.met.inflight.Add(-1)
	}
}

// BeginDrain flips the server into draining mode: /healthz turns 503 and
// new work is refused, while already-admitted requests keep executing.
// Call it on SIGTERM before shutting the HTTP layer down, so load
// balancers stop routing here while in-flight work completes.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Close stops the worker pool after the queue empties. Only call it once
// no handler can still enqueue — i.e. after BeginDrain plus an HTTP-layer
// drain (http.Server.Shutdown) — or a racing handler panics on the closed
// queue.
func (s *Server) Close() {
	close(s.queue)
	s.wg.Wait()
}

// Handler returns the daemon's full HTTP surface: the service endpoints
// plus the observability routes (/metrics, /debug/vars, /debug/pprof)
// for the server's registry.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/compress", s.handleCompress)
	mux.HandleFunc("/decompress", s.handleDecompress)
	mux.HandleFunc("/healthz", s.handleHealthz)
	debug := obs.DebugHandler(s.reg)
	mux.Handle("/metrics", debug)
	mux.Handle("/debug/", debug)
	// Longer patterns win over /debug/ (net/http precedence), so these
	// shadow the generic debug handler for their exact paths.
	mux.Handle("/debug/requests", s.recorder.Handler())
	mux.Handle("/debug/slo", s.slo.Handler())
	return mux
}

// --- admission ---------------------------------------------------------

// backpressure builds a transient-refusal response. Every status it is
// used for (429 queue/codec saturation, 503 draining or fleet outage, 507
// store overflow) is retryable, so every one carries the Retry-After hint.
func (s *Server) backpressure(status int, msg string) *response {
	r := errorResponse(status, msg)
	r.header = map[string]string{"Retry-After": strconv.Itoa(s.cfg.RetryAfterSeconds)}
	return r
}

// reqObs is one request's observability state: the per-request tracer
// (nil when the request is untraced), the context carrying its root span,
// and the flight-recorder fields the handler fills in as attribution
// becomes known. It never influences response bytes — an untraced request
// and a traced one produce identical non-envelope output.
type reqObs struct {
	endpoint    string
	origin      string // "organic", or "loadgen" via X-Dnacomp-Origin
	exportTrace bool   // ?trace=1: wrap the response in a JSON trace envelope
	tracer      *obs.Tracer
	ctx         context.Context
	root        *obs.Span
	rec         obs.RequestRecord
}

// beginRequest decides whether the request is traced (inbound traceparent,
// ?trace=1, or a configured TraceSink) and, if so, opens the per-request
// tracer and the "serve.<endpoint>" root span — joining the caller's trace
// when a valid traceparent came in.
func (s *Server) beginRequest(r *http.Request, endpoint string) *reqObs {
	rx := &reqObs{endpoint: endpoint, origin: "organic", ctx: r.Context()}
	if r.Header.Get("X-Dnacomp-Origin") == "loadgen" {
		rx.origin = "loadgen"
	}
	rx.exportTrace = r.URL.Query().Get("trace") == "1"
	remote, hasRemote := obs.ParseTraceparent(r.Header.Get("traceparent"))
	if hasRemote || rx.exportTrace || s.cfg.TraceSink != nil {
		rx.tracer = obs.NewTracer(s.clock, s.ids)
		ctx := obs.WithTracer(rx.ctx, rx.tracer)
		if hasRemote {
			ctx = obs.WithRemoteParent(ctx, remote)
		}
		ctx, rx.root = obs.Start(ctx, "serve."+endpoint)
		rx.root.SetAttr("endpoint", endpoint)
		rx.root.SetAttr("origin", rx.origin)
		rx.ctx = ctx
	}
	return rx
}

// submit runs fn through the admission plane: draining refusal, per-codec
// backlog bound, bounded queue with 429 backpressure, worker execution.
// It returns the response to write. Queue wait (admission to execution,
// including the per-codec semaphore) and work time are measured on the
// injected clock into rx for the flight recorder, and a "serve.queue"
// child span covers the wait when the request is traced.
func (s *Server) submit(rx *reqObs, codec string, fn func(ctx context.Context) *response) *response {
	if s.draining.Load() {
		s.met.rejected("draining")
		return s.backpressure(http.StatusServiceUnavailable, "server is draining")
	}
	// A saturated codec is refused before the queue: its semaphore would
	// park a worker on every queued request, so admitting more of the same
	// codec only grows the backlog other codecs then wait behind.
	if pending := s.codecPending[codec]; pending != nil {
		if pending.Add(1) > int64(s.cfg.PerCodecBacklog) {
			pending.Add(-1)
			s.met.rejected("codec_saturated")
			return s.backpressure(http.StatusTooManyRequests,
				fmt.Sprintf("codec %s is saturated (%d requests pending)", codec, s.cfg.PerCodecBacklog))
		}
		defer pending.Add(-1)
	}
	enqueued := s.clock.Now()
	_, qspan := obs.Start(rx.ctx, "serve.queue")
	run := func() *response {
		qspan.End()
		rx.rec.QueueWaitMS = float64(s.clock.Since(enqueued).Nanoseconds()) / 1e6
		w0 := s.clock.Now()
		resp := fn(rx.ctx)
		rx.rec.WorkMS = float64(s.clock.Since(w0).Nanoseconds()) / 1e6
		return resp
	}
	j := job{codec: codec, run: run, done: make(chan *response, 1)}
	select {
	case s.queue <- j:
		s.met.queueDepth.Add(1)
	default:
		qspan.End()
		s.met.rejected("queue_full")
		return s.backpressure(http.StatusTooManyRequests, "request queue is full")
	}
	return <-j.done
}

// outcomeOf folds a status code into the recorder's outcome taxonomy:
// "ok", "rejected" (retryable backpressure), "client_error", or "error"
// (server-side failure — the only outcome that counts against the
// availability SLO and fires the recorder's dump-on-error hook).
func outcomeOf(status int) string {
	switch {
	case status < 400:
		return "ok"
	case status == http.StatusTooManyRequests,
		status == http.StatusServiceUnavailable,
		status == http.StatusInsufficientStorage:
		return "rejected"
	case status < 500:
		return "client_error"
	default:
		return "error"
	}
}

// traceEnvelope is the ?trace=1 response shape: the original status,
// headers and (base64) body, plus the request's span tree.
type traceEnvelope struct {
	Status  int               `json:"status"`
	Headers map[string]string `json:"headers,omitempty"`
	TraceID string            `json:"trace_id,omitempty"`
	Trace   []*obs.SpanTree   `json:"trace"`
	Body    []byte            `json:"body_b64,omitempty"`
}

// finish completes the request: ends the root span, renders resp (or the
// ?trace=1 JSON envelope), books the endpoint metrics and SLO counters,
// writes the flight-recorder record, and emits the trace to the sink.
// t0 anchors the latency histogram on the injected clock.
func (s *Server) finish(w http.ResponseWriter, rx *reqObs, t0 time.Time, resp *response) {
	totalMS := float64(s.clock.Since(t0).Nanoseconds()) / 1e6
	outcome := outcomeOf(resp.status)
	if rx.root != nil {
		rx.root.SetAttr("status", resp.status)
		rx.root.SetAttr("outcome", outcome)
		rx.root.End()
	}

	body := resp.body
	contentType := resp.contentType
	if rx.exportTrace && rx.tracer != nil {
		env := traceEnvelope{
			Status:  resp.status,
			Headers: resp.header,
			TraceID: rx.root.TraceID(),
			Trace:   rx.tracer.Tree(),
			Body:    resp.body,
		}
		if enc, err := json.MarshalIndent(env, "", "  "); err == nil {
			body = append(enc, '\n')
			contentType = "application/json; charset=utf-8"
		}
	}
	for k, v := range resp.header {
		w.Header().Set(k, v)
	}
	if rx.root != nil {
		w.Header().Set("X-Dnacomp-Trace-Id", rx.root.TraceID())
	}
	if contentType != "" {
		w.Header().Set("Content-Type", contentType)
	}
	w.WriteHeader(resp.status)
	if len(body) > 0 {
		w.Write(body)
	}

	s.met.request(rx.endpoint, resp.status)
	s.met.latency(rx.endpoint, totalMS)
	s.met.completed.Inc()
	if outcome == "error" {
		s.met.errors.Inc()
	}

	if s.recorder != nil {
		rec := rx.rec
		rec.TraceID = rx.root.TraceID()
		rec.Endpoint = rx.endpoint
		rec.Origin = rx.origin
		rec.Status = resp.status
		rec.Outcome = outcome
		rec.TotalMS = totalMS
		rec.OutBytes = len(resp.body)
		if outcome == "error" || outcome == "client_error" {
			rec.Error = strings.TrimSpace(string(resp.body))
		}
		s.attributeFleet(&rec)
		s.recorder.Record(rec)
	}
	s.slo.Evaluate()
	s.writeTraceSink(rx)
}

// attributeFleet stamps the record with the blob's replica set and the
// fleet's breaker states at completion, when a fleet-backed store was
// touched under a name.
func (s *Server) attributeFleet(rec *obs.RequestRecord) {
	if rec.StoreName == "" || s.fleet == nil {
		return
	}
	rec.Shards = s.fleet.Replicas(s.cfg.FleetContainer, rec.StoreName)
	states := s.fleet.BreakerStates()
	rec.Breakers = make(map[string]string, len(states))
	for name, st := range states {
		rec.Breakers[name] = st.String()
	}
}

// writeTraceSink appends the finished trace as one JSON line to the
// configured sink.
func (s *Server) writeTraceSink(rx *reqObs) {
	if s.cfg.TraceSink == nil || rx.tracer == nil {
		return
	}
	line := struct {
		TraceID  string          `json:"trace_id"`
		Endpoint string          `json:"endpoint"`
		Origin   string          `json:"origin"`
		Trace    []*obs.SpanTree `json:"trace"`
	}{TraceID: rx.root.TraceID(), Endpoint: rx.endpoint, Origin: rx.origin, Trace: rx.tracer.Tree()}
	enc, err := json.Marshal(line)
	if err != nil {
		return
	}
	s.sinkMu.Lock()
	defer s.sinkMu.Unlock()
	s.cfg.TraceSink.Write(append(enc, '\n'))
}

func errorResponse(status int, msg string) *response {
	return &response{status: status, contentType: "text/plain; charset=utf-8", body: []byte(msg + "\n")}
}

// readBody reads the request body under the configured cap. A too-large
// body is a client error the admission metrics count separately.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, *response) {
	body, err := ReadBody(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), r.ContentLength, s.cfg.MaxBodyBytes)
	if err != nil {
		s.met.rejected("body_too_large")
		return nil, errorResponse(http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxBodyBytes))
	}
	return body, nil
}

// maxBodyPrealloc caps what a request's declared length alone commits
// (1 MiB); past it, the body buffer grows only with the bytes received.
const maxBodyPrealloc = 1 << 20

// ReadBody reads r to its end, as io.ReadAll does, into one buffer sized
// from declared, the length the request declared (Content-Length, -1 when
// unknown), capped at limit and at maxBodyPrealloc, and no smaller than
// io.ReadAll's first 512 bytes. A body no longer than it declared and no
// longer than the caps arrives in that one allocation; one spare byte
// lets the read that meets the end land without growing.
func ReadBody(r io.Reader, declared, limit int64) ([]byte, error) {
	b := make([]byte, 0, max(min(max(declared, 0), limit, maxBodyPrealloc)+1, 512))
	for {
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// --- handlers ----------------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// compressParams is the declared exchange context plus the compression
// knobs of one /compress request.
type compressParams struct {
	codec     string // forced codec ("" = ask the tree)
	blockSize int    // > 0 = CXB1 multi-block container
	name      string // store the container under this name for GET reads
	fileKB    float64
	hasFileKB bool
	ctx       core.Context
}

// parseCompressParams validates the query against the codec registry and
// numeric domains.
func (s *Server) parseCompressParams(r *http.Request) (compressParams, error) {
	q := r.URL.Query()
	p := compressParams{ctx: s.cfg.DefaultContext, name: q.Get("name")}
	p.codec = q.Get("codec")
	if p.codec != "" {
		if _, err := compress.New(p.codec); err != nil {
			return p, err
		}
	}
	if v := q.Get("block_size"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			return p, fmt.Errorf("block_size %q: want a positive integer", v)
		}
		p.blockSize = n
	}
	var err error
	if p.fileKB, p.hasFileKB, err = queryFloat(q.Get("file_kb"), "file_kb"); err != nil {
		return p, err
	}
	if v, ok, err := queryFloat(q.Get("ram_mb"), "ram_mb"); err != nil {
		return p, err
	} else if ok {
		p.ctx.RAMMB = v
	}
	if v, ok, err := queryFloat(q.Get("cpu_mhz"), "cpu_mhz"); err != nil {
		return p, err
	} else if ok {
		p.ctx.CPUMHz = v
	}
	if v, ok, err := queryFloat(q.Get("bw_mbps"), "bw_mbps"); err != nil {
		return p, err
	} else if ok {
		p.ctx.BandwidthMbps = v
	}
	return p, nil
}

func queryFloat(v, name string) (float64, bool, error) {
	if v == "" {
		return 0, false, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil || f < 0 || math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, false, fmt.Errorf("%s %q: want a non-negative number", name, v)
	}
	return f, true, nil
}

func (s *Server) handleCompress(w http.ResponseWriter, r *http.Request) {
	t0 := s.clock.Now()
	rx := s.beginRequest(r, "compress")
	if r.Method != http.MethodPost {
		s.finish(w, rx, t0, errorResponse(http.StatusMethodNotAllowed, "POST a sequence to /compress"))
		return
	}
	p, err := s.parseCompressParams(r)
	if err != nil {
		s.finish(w, rx, t0, errorResponse(http.StatusBadRequest, err.Error()))
		return
	}
	body, errResp := s.readBody(w, r)
	if errResp != nil {
		s.finish(w, rx, t0, errResp)
		return
	}
	rx.rec.InBytes = len(body)
	// Codec resolution happens before admission so the per-codec semaphore
	// key is known; it is a pure function of (params, body, model). The
	// body is cleansed in its own buffer: nothing reads the text after.
	symbols, _ := appendCleansed(body[:0], body)
	if len(symbols) == 0 {
		s.finish(w, rx, t0, errorResponse(http.StatusBadRequest, "input contains no ACGT bases"))
		return
	}
	codec, source := p.codec, "request"
	if codec == "" {
		ctx := p.ctx
		ctx.FileSizeKB = float64(len(symbols)) / 1024
		if p.hasFileKB {
			ctx.FileSizeKB = p.fileKB
		}
		codec, source = s.engine.SelectCodec(ctx), "tree"
	}
	rx.rec.Codec, rx.rec.CodecSource = codec, source
	rx.rec.Bases = len(symbols)
	rx.rec.StoreName = p.name
	resp := s.submit(rx, codec, func(ctx context.Context) *response {
		return s.doCompress(ctx, rx, codec, source, p, symbols)
	})
	s.finish(w, rx, t0, resp)
}

// doCompress is the pure work function of /compress: symbols and resolved
// parameters in, deterministic container bytes out. Under a traced
// request it wraps the codec work in a "codec.<name>" span and the store
// write (and its fleet replica fan-out) in a "serve.store" span.
func (s *Server) doCompress(ctx context.Context, rx *reqObs, codec, source string, p compressParams, symbols []byte) *response {
	_, cspan := obs.Start(ctx, "codec."+codec)
	cspan.SetAttr("codec", codec)
	cspan.SetAttr("source", source)
	cspan.SetAttr("bases", len(symbols))
	container, st, err := compress.Pack(s.reg, codec, symbols, p.blockSize)
	cspan.SetAttr("modeled_ms", float64(st.WorkNS)/1e6)
	cspan.End()
	rx.rec.ModeledMS = float64(st.WorkNS) / 1e6
	if err != nil {
		return errorResponse(http.StatusUnprocessableEntity, fmt.Sprintf("compress with %s: %v", codec, err))
	}
	if p.name != "" {
		if errResp := s.storePut(ctx, p.name, container); errResp != nil {
			return errResp
		}
	}
	s.met.selected(codec, source)
	resp := &response{
		status:      http.StatusOK,
		contentType: "application/octet-stream",
		body:        container,
		header: map[string]string{
			"X-Dnacomp-Codec":  codec,
			"X-Dnacomp-Source": source,
			"X-Dnacomp-Bases":  strconv.Itoa(len(symbols)),
		},
	}
	if p.blockSize > 0 {
		// Rounded up as the writer rounds, without overflow.
		resp.header["X-Dnacomp-Blocks"] = strconv.Itoa(len(symbols)/p.blockSize + min(len(symbols)%p.blockSize, 1))
	}
	return resp
}

// rangeParams is the optional off/len window of a /decompress request.
type rangeParams struct {
	off, n int
	whole  bool // no range declared: restore everything
	hasLen bool
}

func parseRange(q map[string][]string) (rangeParams, error) {
	get := func(k string) string {
		if vs := q[k]; len(vs) > 0 {
			return vs[0]
		}
		return ""
	}
	offStr, lenStr := get("off"), get("len")
	if offStr == "" && lenStr == "" {
		return rangeParams{whole: true}, nil
	}
	p := rangeParams{}
	var err error
	if offStr != "" {
		if p.off, err = strconv.Atoi(offStr); err != nil || p.off < 0 {
			return p, fmt.Errorf("off %q: want a non-negative integer", offStr)
		}
	}
	if lenStr != "" {
		if p.n, err = strconv.Atoi(lenStr); err != nil || p.n < 0 {
			return p, fmt.Errorf("len %q: want a non-negative integer", lenStr)
		}
		p.hasLen = true
	}
	return p, nil
}

func (s *Server) handleDecompress(w http.ResponseWriter, r *http.Request) {
	t0 := s.clock.Now()
	rx := s.beginRequest(r, "decompress")
	rng, err := parseRange(r.URL.Query())
	if err != nil {
		s.finish(w, rx, t0, errorResponse(http.StatusBadRequest, err.Error()))
		return
	}
	// One open per request: the reader's codec keys the per-codec
	// semaphore. A container that fails to open is still admitted, with no
	// semaphore, and the worker answers its 422, so drain and backpressure
	// statuses never depend on whether the bytes parse.
	var (
		rd      *compress.BlockReader
		openErr error
	)
	switch r.Method {
	case http.MethodPost:
		body, errResp := s.readBody(w, r)
		if errResp != nil {
			s.finish(w, rx, t0, errResp)
			return
		}
		rx.rec.InBytes = len(body)
		rd, openErr = compress.OpenBlocksObserved(s.reg, body, s.cfg.Limits)
	case http.MethodGet:
		name := r.URL.Query().Get("name")
		if name == "" {
			s.finish(w, rx, t0, errorResponse(http.StatusBadRequest,
				"GET /decompress needs ?name= of a stored container (POST the container body otherwise)"))
			return
		}
		rx.rec.StoreName = name
		var errResp *response
		if rd, rx.rec.InBytes, openErr, errResp = s.fetchStored(rx.ctx, name, rng); errResp != nil {
			s.finish(w, rx, t0, errResp)
			return
		}
		if openErr == nil {
			rd.UseCache(s.blocks)
		}
	default:
		s.finish(w, rx, t0, errorResponse(http.StatusMethodNotAllowed, "POST a container or GET ?name="))
		return
	}
	codec := ""
	if openErr == nil {
		codec = rd.Codec()
	}
	rx.rec.Codec, rx.rec.CodecSource = codec, "container"
	resp := s.submit(rx, codec, func(ctx context.Context) *response {
		return s.doDecompress(ctx, rx, rd, openErr, rng)
	})
	s.finish(w, rx, t0, resp)
}

// doDecompress is the pure work function of /decompress: the request's
// reader (or the error its container failed to open with) and a validated
// range in, restored ASCII bases out. Every request takes one path:
// resolveRange, then Decompress for a whole restore or Slice for a range,
// so only the blocks a range overlaps are decoded, on either format.
func (s *Server) doDecompress(ctx context.Context, rx *reqObs, r *compress.BlockReader, openErr error, rng rangeParams) *response {
	spanName := "codec.decode"
	if openErr == nil {
		spanName = "codec." + r.Codec()
	}
	_, cspan := obs.Start(ctx, spanName)
	defer cspan.End()
	cspan.SetAttr("container_bytes", rx.rec.InBytes)
	if openErr != nil {
		return errorResponse(http.StatusUnprocessableEntity, fmt.Sprintf("decompress: %v", openErr))
	}
	off, n, err := resolveRange(rng, r.Bases())
	if err != nil {
		return errorResponse(http.StatusRequestedRangeNotSatisfiable, err.Error())
	}
	var (
		symbols []byte
		st      compress.Stats
	)
	if rng.whole {
		symbols, st, err = r.Decompress()
	} else {
		symbols, st, err = r.Slice(off, n)
	}
	compress.ObserveDecompress(s.reg, r.Codec(), rx.rec.InBytes, len(symbols), st, err)
	if err != nil {
		return errorResponse(http.StatusUnprocessableEntity, fmt.Sprintf("decompress: %v", err))
	}
	cspan.SetAttr("bases", r.Bases())
	rx.rec.Bases = r.Bases()
	header := map[string]string{
		"X-Dnacomp-Bases": strconv.Itoa(r.Bases()),
		"X-Dnacomp-Codec": r.Codec(),
	}
	if !rng.whole {
		header["X-Dnacomp-Range"] = fmt.Sprintf("%d:%d", off, n)
	}
	// Decompress and Slice return a buffer the caller owns: fresh, or a
	// one-block codec output the block cache kept only a packed copy of.
	// So the bases turn into ASCII in place.
	return &response{
		status:      http.StatusOK,
		contentType: "text/plain; charset=utf-8",
		header:      header,
		body:        seq.DecodeTo(symbols, symbols),
	}
}

// resolveRange bounds-checks the declared window against the restored
// symbol count; a missing len means "to the end". The end is compared as
// n > bases-off, never off+n > bases, which a huge len would overflow.
func resolveRange(rng rangeParams, bases int) (off, n int, err error) {
	off, n = rng.off, rng.n
	if !rng.hasLen {
		n = bases - off
	}
	if off > bases || n < 0 || n > bases-off {
		return 0, 0, fmt.Errorf("range [%d, %d+%d) outside [0, %d)", off, off, n, bases)
	}
	return off, n, nil
}

// --- named-container store --------------------------------------------

// storePut retains container under name for later GET range reads,
// returning a non-nil error response on refusal. Overwriting an existing
// name is allowed (idempotent re-uploads); new names beyond the cap are
// refused (507 + Retry-After) so a client cannot grow the daemon's — or
// the fleet's — footprint without bound. In fleet mode the bytes travel
// to the replicated store and a lost write quorum degrades to 503 +
// Retry-After; the local name reservation is rolled back so the failed
// name does not burn a store slot.
func (s *Server) storePut(ctx context.Context, name string, container []byte) *response {
	ctx, span := obs.Start(ctx, "serve.store")
	defer span.End()
	span.SetAttr("name", name)
	span.SetAttr("bytes", len(container))
	s.storeMu.Lock()
	_, existed := s.store[name]
	if !existed && len(s.store) >= s.cfg.MaxStored {
		s.storeMu.Unlock()
		return s.backpressure(http.StatusInsufficientStorage,
			fmt.Sprintf("container store is full (%d names)", s.cfg.MaxStored))
	}
	if s.fleet == nil {
		s.store[name] = container
		s.storeMu.Unlock()
		return nil
	}
	s.store[name] = nil // reserve the name under the cap while the fleet write runs
	s.storeMu.Unlock()
	if err := s.fleet.PutCtx(ctx, s.cfg.FleetContainer, name, container); err != nil {
		if !existed {
			s.storeMu.Lock()
			delete(s.store, name)
			s.storeMu.Unlock()
		}
		return s.fleetError("store", err)
	}
	return nil
}

// spanReader reads bytes [off, off+n) of one stored container, clipped to
// its end. pin 0 reads the newest version; any other pin reads only that
// version, failing with cloud.ErrVersionMoved once it is gone. It returns
// the version it read.
type spanReader func(off, n int, pin uint64) ([]byte, uint64, error)

// sliceReader serves spans of a container already in memory: one version.
func sliceReader(c []byte) spanReader {
	return func(off, n int, _ uint64) ([]byte, uint64, error) {
		lo := min(off, len(c))
		return c[lo : lo+min(n, len(c)-lo)], 0, nil
	}
}

const (
	// indexPrefix is the first read of a stored container: any header
	// (at most 102 bytes) and, for dnax, the index of up to 38 blocks. A
	// longer index takes a second read.
	indexPrefix = 512
	// fetchAttempts bounds how often a GET read starts again from the
	// index after an overwrite moved the container's version under it.
	fetchAttempts = 3
)

// fetchStored opens the container stored under name for a GET read of rng.
// It moves only what the read decodes: the header and index, then the
// frames of the blocks rng overlaps, pinned to the version the index came
// from. An overwrite that moves the version in between restarts the read
// from the index, up to fetchAttempts times, then answers 503 +
// Retry-After; so a window never mixes two versions. The in-process store
// looks the container up once and serves both reads from it. It returns
// the reader, the container's size from its index (or the bytes read, if
// they do not open), and the open error the worker answers 422 with; a
// non-nil response is a fetch failure: 404 for an unknown name, 503 +
// Retry-After when the fleet cannot serve it.
func (s *Server) fetchStored(ctx context.Context, name string, rng rangeParams) (*compress.BlockReader, int, error, *response) {
	ctx, span := obs.Start(ctx, "serve.fetch")
	defer span.End()
	span.SetAttr("name", name)
	var read spanReader
	if s.fleet == nil {
		s.storeMu.RLock()
		c, ok := s.store[name]
		s.storeMu.RUnlock()
		if !ok {
			return nil, 0, nil, errorResponse(http.StatusNotFound, fmt.Sprintf("no stored container %q", name))
		}
		read = sliceReader(c)
	} else {
		read = func(off, n int, pin uint64) ([]byte, uint64, error) {
			return s.fleet.GetRangeCtx(ctx, s.cfg.FleetContainer, name, off, n, pin)
		}
	}
	for attempt := 1; ; attempt++ {
		rd, size, openErr, err := s.openStored(read, rng)
		switch {
		case err == nil:
			return rd, size, openErr, nil
		case !errors.Is(err, cloud.ErrVersionMoved):
			return nil, 0, nil, s.fleetError("fetch", err)
		case attempt == fetchAttempts:
			s.met.rejected("version_moved")
			return nil, 0, nil, s.backpressure(http.StatusServiceUnavailable,
				fmt.Sprintf("stored container %q was overwritten during each of %d reads", name, fetchAttempts))
		}
	}
}

// openStored is one attempt of fetchStored: the prefix read, a second read
// if the index runs past it, the open, and the frames rng needs unless the
// prefix already held them. A prefix shorter than asked for is the whole
// container, opened as a POSTed one is. A range outside the container
// fetches no frames: the worker answers its 416.
func (s *Server) openStored(read spanReader, rng rangeParams) (*compress.BlockReader, int, error, error) {
	head, ver, err := read(0, indexPrefix, 0)
	if err != nil {
		return nil, 0, nil, err
	}
	if len(head) < indexPrefix {
		rd, openErr := compress.OpenBlocksObserved(s.reg, head, s.cfg.Limits)
		return rd, len(head), openErr, nil
	}
	need, openErr := compress.BlockIndexLen(head, s.cfg.Limits)
	if openErr != nil {
		return nil, len(head), openErr, nil
	}
	if need > len(head) {
		if head, _, err = read(0, need, ver); err != nil {
			return nil, 0, nil, err
		}
	}
	rd, openErr := compress.OpenBlockIndex(s.reg, head, s.cfg.Limits)
	if openErr != nil {
		return nil, len(head), openErr, nil
	}
	if off, n, err := resolveRange(rng, rd.Bases()); err == nil {
		if lo, hi := rd.FrameSpan(off, n); hi > len(head) {
			frames, _, err := read(lo, hi-lo, ver)
			if err != nil {
				return nil, 0, nil, err
			}
			rd.AttachFrames(lo, frames)
		}
	}
	return rd, rd.Size(), nil, nil
}

// fleetError maps a fleet store failure onto the HTTP surface: a missing
// blob is 404, a quorum-lost or transient fleet state is retryable
// backpressure (503 + Retry-After), anything else is a 500.
func (s *Server) fleetError(op string, err error) *response {
	switch {
	case errors.Is(err, cloud.ErrNotFound):
		return errorResponse(http.StatusNotFound, fmt.Sprintf("%s container: %v", op, err))
	case cloud.IsDegraded(err) || cloud.IsTransient(err):
		s.reg.Counter("dna_serve_fleet_unavailable_total", "Requests refused because the fleet store lost its quorum.",
			"op", op).Inc()
		return s.backpressure(http.StatusServiceUnavailable, fmt.Sprintf("fleet store cannot %s container: %v", op, err))
	default:
		return errorResponse(http.StatusInternalServerError, fmt.Sprintf("%s container: %v", op, err))
	}
}

// Cleanse converts request body text — FASTA or raw base text, any case,
// with headers/whitespace/non-ACGT stripped — into the symbol codes the
// codecs consume. The daemon and the dnacomp CLI both cleanse through it.
// Input is FASTA when its first non-space byte is '>'; then each line is
// trimmed of surrounding space (bytes.TrimSpace), blank and '>' header
// lines are skipped, and the rest is cleaned, with no limit on line length.
// Any other input is cleaned whole. Cleanse never writes to raw.
func Cleanse(raw []byte) ([]byte, seq.CleanStats) {
	return appendCleansed(make([]byte, 0, len(raw)), raw)
}

// appendCleansed is Cleanse appending the symbols to dst. dst may be
// raw[:0], which cleanses raw in its own buffer: a line is cleaned after
// it is cut from the rest, and each symbol lands at or before its byte.
func appendCleansed(dst, raw []byte) ([]byte, seq.CleanStats) {
	var st seq.CleanStats
	if !bytes.HasPrefix(bytes.TrimSpace(raw), []byte(">")) {
		return seq.AppendClean(dst, raw, &st), st
	}
	for rest := raw; len(rest) > 0; {
		var line []byte
		line, rest, _ = bytes.Cut(rest, []byte("\n"))
		if line = bytes.TrimSpace(line); len(line) > 0 && line[0] != '>' {
			dst = seq.AppendClean(dst, line, &st)
		}
	}
	return dst, st
}
