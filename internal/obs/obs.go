// Package obs is the repository's observability core: a dependency-free
// metrics registry (counters, gauges, fixed-bucket histograms with
// Prometheus text and expvar export) and span-based tracing with an
// injectable clock, plumbed through context.Context so every pipeline
// layer (codec, cache, cloud exchange, worker pool) records into the same
// sinks without global wiring.
//
// Determinism contract: nothing in this package is allowed to leak wall
// time into measurement results. The experiment pipeline's figures come
// from modeled costs (compress.Stats); obs only *observes* them. Code in
// the measurement-path packages never calls time.Now directly (enforced by
// the dnalint clockinject analyzer) — it reads an injected Clock, which is
// the system clock in CLIs, a Fake in tests, and irrelevant to grid bytes
// either way: with the same inputs, metric counters and modeled-time
// histograms are byte-identical across runs and -jobs values; only span
// wall durations vary, and those never feed a grid.
//
// Recording is always on and costs a handful of atomic updates (see
// BenchmarkInstrumentOverhead); "enabling observability" in the CLIs means
// *exporting* a snapshot (-metrics, -trace, -pprof), never changing what
// the pipeline computes.
package obs

import "context"

// ctxKey namespaces the context values this package owns.
type ctxKey int

const (
	tracerKey ctxKey = iota
	spanKey
	metricsKey
	remoteParentKey
)

// WithMetrics returns a context carrying reg as the ambient metrics
// registry.
func WithMetrics(ctx context.Context, reg *Registry) context.Context {
	return context.WithValue(ctx, metricsKey, reg)
}

// Metrics returns the context's registry, or the process default when none
// was installed.
func Metrics(ctx context.Context) *Registry {
	if r, ok := ctx.Value(metricsKey).(*Registry); ok && r != nil {
		return r
	}
	return Default()
}

// WithTracer returns a context carrying tr; subsequent Start calls under it
// record spans.
func WithTracer(ctx context.Context, tr *Tracer) context.Context {
	return context.WithValue(ctx, tracerKey, tr)
}

// TracerFrom returns the context's tracer, or nil when tracing is off.
func TracerFrom(ctx context.Context) *Tracer {
	tr, _ := ctx.Value(tracerKey).(*Tracer)
	return tr
}

// Start opens a span named name under the context's tracer and returns a
// child context carrying it, so nested Start calls become child spans.
// Without a tracer it returns (ctx, nil); the nil *Span is a no-op — End
// and SetAttr on it are safe — so instrumented code never branches on
// whether tracing is enabled.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	tr := TracerFrom(ctx)
	if tr == nil {
		return ctx, nil
	}
	var parent *Span
	if p, ok := ctx.Value(spanKey).(*Span); ok && p != nil {
		parent = p
	}
	var remote RemoteParent
	if parent == nil {
		remote = RemoteParentFrom(ctx)
	}
	s := tr.start(name, parent, remote)
	return context.WithValue(ctx, spanKey, s), s
}
