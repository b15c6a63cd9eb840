package experiment

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"

	"github.com/srl-nuces/ctxdna/internal/cloud"
	"github.com/srl-nuces/ctxdna/internal/compress"
	"github.com/srl-nuces/ctxdna/internal/obs"
	"github.com/srl-nuces/ctxdna/internal/synth"
)

// RunError attributes one failed compression run to its file and codec.
type RunError struct {
	File  string
	Codec string
	Err   error
}

func (e *RunError) Error() string {
	return fmt.Sprintf("experiment: %s on %s: %v", e.Codec, e.File, e.Err)
}

func (e *RunError) Unwrap() error { return e.Err }

// RunErrors aggregates every run failure of a parallel grid build. In
// strict mode the first failure cancels the remaining work, so the slice
// usually holds one entry (in-flight workers may contribute more); in
// Partial mode it names every failed (file, codec) slot, in slot order.
type RunErrors []*RunError

func (es RunErrors) Error() string {
	switch len(es) {
	case 0:
		return "experiment: no errors"
	case 1:
		return es[0].Error()
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "experiment: %d runs failed: ", len(es))
	for i, e := range es {
		if i > 0 {
			sb.WriteString("; ")
		}
		fmt.Fprintf(&sb, "%s on %s: %v", e.Codec, e.File, e.Err)
	}
	return sb.String()
}

// Unwrap exposes the individual failures to errors.Is / errors.As.
func (es RunErrors) Unwrap() []error {
	out := make([]error, len(es))
	for i, e := range es {
		out[i] = e
	}
	return out
}

// RunConfig bundles the optional knobs of a grid build.
type RunConfig struct {
	// Jobs is the worker count; <= 0 means runtime.GOMAXPROCS(0), 1
	// reproduces the sequential path exactly.
	Jobs int
	// Cache, when non-nil, serves verified (codec, content) results so
	// repeated sweeps cost one compression pass total.
	Cache *compress.Cache
	// Partial switches the build to graceful degradation: a failed (file,
	// codec) run no longer cancels the grid; its slot is recorded in the
	// returned RunErrors and the grid is assembled from the slots that
	// succeeded. Files with no surviving codec are dropped entirely.
	Partial bool
	// Metrics receives pool-utilization gauges, task/failure counters and
	// the per-codec operation metrics of every run; nil means the default
	// registry. Recording never influences the grid: the produced rows,
	// measurements and CSV bytes are identical with or without a registry.
	Metrics *obs.Registry
	// Progress, when non-nil, is called after every finished task with
	// monotonically increasing done counts (serialized under a mutex, so
	// the callback needs no locking of its own). See ProgressReporter for a
	// ready-made stderr renderer.
	Progress func(done, total int)
}

// gridMetrics is the worker-pool series set of one grid build.
type gridMetrics struct {
	workers    *obs.Gauge
	tasksTotal *obs.Gauge
	busy       *obs.Gauge
	tasksDone  *obs.Counter
	runsFailed *obs.Counter
}

func newGridMetrics(reg *obs.Registry) gridMetrics {
	reg = obs.OrDefault(reg)
	return gridMetrics{
		workers:    reg.Gauge("dna_grid_workers", "Worker-pool size of the current grid build."),
		tasksTotal: reg.Gauge("dna_grid_tasks_total", "Tasks (file × codec) in the current grid build."),
		busy:       reg.Gauge("dna_grid_workers_busy", "Workers currently executing a run."),
		tasksDone:  reg.Counter("dna_grid_tasks_done_total", "Grid tasks completed, failures included."),
		runsFailed: reg.Counter("dna_grid_runs_failed_total", "Grid runs that failed."),
	}
}

// RunGrid builds the experiment grid with a bounded worker pool fanning
// out the (file × codec) compression/decompression runs. It returns the
// grid, the failed (file, codec) slots, and a fatal error. In the default
// (strict) mode any failure aborts the build and comes back as both
// RunErrors and the error; with cfg.Partial the failures are surfaced
// alongside a usable partial grid.
//
// Determinism: results land in slots indexed by (file, codec) position, not
// appended on completion, so the returned Grid — rows, measurements, labels,
// CSV export — is byte-identical regardless of cfg.Jobs or scheduling.
//
// Cancellation: in strict mode the first failing run cancels the whole
// pool; the aggregated RunErrors names each failed (file, codec) pair.
// External cancellation always wins: if the caller's ctx is done, RunGrid
// returns ctx.Err() promptly, even when failed runs were recorded in the
// same race, so callers can tell cancellation from run failure. All
// workers have exited by the time RunGrid returns.
func RunGrid(ctx context.Context, files []synth.File, contexts []cloud.VM, codecs []string, noise NoiseConfig, cfg RunConfig) (*Grid, RunErrors, error) {
	if len(files) == 0 || len(contexts) == 0 || len(codecs) == 0 {
		return nil, nil, fmt.Errorf("experiment: empty files, contexts or codecs")
	}
	// Fail on unknown codec names before spinning up any workers.
	for _, name := range codecs {
		if _, err := compress.New(name); err != nil {
			return nil, nil, err
		}
	}
	jobs := cfg.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	nTasks := len(files) * len(codecs)
	if jobs > nTasks {
		jobs = nTasks
	}

	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	met := newGridMetrics(cfg.Metrics)
	met.workers.Set(float64(jobs))
	met.tasksTotal.Set(float64(nTasks))

	// Progress calls are serialized under a mutex and carry a monotone done
	// count, so a renderer can write terminal lines without its own locking
	// and never sees counts run backwards.
	var progressMu sync.Mutex
	progressDone := 0
	noteDone := func(failed bool) {
		met.tasksDone.Inc()
		if failed {
			met.runsFailed.Inc()
		}
		if cfg.Progress == nil {
			return
		}
		progressMu.Lock()
		progressDone++
		cfg.Progress(progressDone, nTasks)
		progressMu.Unlock()
	}

	// One slot per (file, codec): workers write disjoint indices, so the
	// assembly below needs no ordering information from the scheduler.
	type task struct{ fi, ci int }
	runs := make([]CodecRun, nTasks)
	errs := make([]*RunError, nTasks)
	tasks := make(chan task)

	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for tk := range tasks {
				f := files[tk.fi]
				name := codecs[tk.ci]
				slot := tk.fi*len(codecs) + tk.ci
				met.busy.Add(1)
				r, err := compress.CompressObserved(cfg.Metrics, cfg.Cache, name, f.Data)
				met.busy.Add(-1)
				if err != nil {
					errs[slot] = &RunError{File: f.Name, Codec: name, Err: err}
					noteDone(true)
					if !cfg.Partial {
						cancel() // abort the rest of the grid promptly
					}
					continue
				}
				runs[slot] = CodecRun{
					Codec: name,
					// Payload bytes, not the armored frame: grid figures
					// measure the codec, not the transport container.
					CompressedSize: r.PayloadBytes,
					CompressStats:  r.CompressStats,
					DecompStats:    r.DecompStats,
				}
				noteDone(false)
			}
		}()
	}

feed:
	for fi := range files {
		for ci := range codecs {
			select {
			case tasks <- task{fi, ci}:
			case <-ctx.Done():
				break feed
			}
		}
	}
	close(tasks)
	wg.Wait()

	// External cancellation beats run failures: a caller that cancelled
	// mid-run must see its own ctx.Err(), not whichever RunErrors the
	// teardown raced in.
	if err := parent.Err(); err != nil {
		return nil, nil, err
	}

	var failed RunErrors
	for _, e := range errs {
		if e != nil {
			failed = append(failed, e)
		}
	}
	if len(failed) > 0 && !cfg.Partial {
		return nil, failed, failed
	}

	g := &Grid{Codecs: codecs, Contexts: contexts}
	for fi, f := range files {
		fr := FileResult{Name: f.Name, Bases: len(f.Data)}
		for ci := range codecs {
			if slot := fi*len(codecs) + ci; errs[slot] == nil {
				fr.Runs = append(fr.Runs, runs[slot])
			}
		}
		if len(fr.Runs) == 0 {
			continue // every codec failed on this file: no usable rows
		}
		g.Files = append(g.Files, fr)
	}
	if len(g.Files) == 0 {
		return nil, failed, fmt.Errorf("experiment: no file survived the grid build (%d failed runs): %w", len(failed), failed)
	}
	g.expand(noise)
	return g, failed, nil
}
