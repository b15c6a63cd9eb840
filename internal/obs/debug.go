package obs

import (
	"context"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"
)

// DebugHandler returns the observability HTTP surface for reg (nil means
// the default registry):
//
//	/metrics        Prometheus text exposition
//	/debug/vars     expvar JSON (registry published as "ctxdna_metrics")
//	/debug/pprof/*  runtime profiling (CPU, heap, goroutine, trace, ...)
//
// Exposed as a handler so CLIs can mount it on any listener. Mounting a
// second handler with a different registry repoints /debug/vars at the new
// registry (see Registry.PublishExpvar).
func DebugHandler(reg *Registry) http.Handler {
	reg = OrDefault(reg)
	reg.PublishExpvar("ctxdna_metrics")
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := reg.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// DebugServer is the lifecycle-managed HTTP server behind the -pprof flags
// and the dnacompd daemon: the listener is bound synchronously in
// NewDebugServer (so a bad address fails before any goroutine spawns, and
// ":0" is usable because Addr reports the kernel-assigned port), serving
// happens in Serve, and Shutdown drains in-flight requests. Header-read
// and idle timeouts bound how long a dribbling client can pin a
// connection, closing the slowloris hole a bare ListenAndServe leaves
// open.
type DebugServer struct {
	srv     *http.Server
	ln      net.Listener
	started atomic.Bool
	done    chan struct{}
}

// NewDebugServer binds addr and prepares to serve h on it. The bind is
// synchronous: an unusable address is reported here, not from whatever
// goroutine later calls Serve. h == nil mounts DebugHandler(nil).
func NewDebugServer(addr string, h http.Handler) (*DebugServer, error) {
	if h == nil {
		h = DebugHandler(nil)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &DebugServer{
		srv: &http.Server{
			Handler:           h,
			ReadHeaderTimeout: 10 * time.Second,
			IdleTimeout:       2 * time.Minute,
		},
		ln:   ln,
		done: make(chan struct{}),
	}, nil
}

// Addr returns the listener's actual address — for ":0" the port the
// kernel assigned.
func (s *DebugServer) Addr() string { return s.ln.Addr().String() }

// URL returns the http base URL of the bound listener.
func (s *DebugServer) URL() string { return "http://" + s.Addr() }

// Serve accepts connections until Shutdown (or a listener failure) and
// returns nil on a clean shutdown. It blocks; callers wanting a background
// server spawn it in a goroutine after NewDebugServer has proven the bind.
func (s *DebugServer) Serve() error {
	s.started.Store(true)
	defer close(s.done)
	if err := s.srv.Serve(s.ln); err != nil && err != http.ErrServerClosed {
		return err
	}
	return nil
}

// Shutdown stops accepting new connections and waits — bounded by ctx —
// for in-flight requests to drain, then for Serve to return. Safe to call
// whether or not Serve has been started; calling it before Serve just
// closes the listener.
func (s *DebugServer) Shutdown(ctx context.Context) error {
	err := s.srv.Shutdown(ctx)
	if s.started.Load() {
		select {
		case <-s.done:
		case <-ctx.Done():
			if err == nil {
				err = ctx.Err()
			}
		}
	}
	return err
}
