package cloud

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"github.com/srl-nuces/ctxdna/internal/compress"
	"github.com/srl-nuces/ctxdna/internal/obs"
)

// RetryPolicy is the exchange client's capped-exponential-backoff schedule.
// Backoff waits are modeled, not slept: BackoffMS derives every wait from
// (Seed, op, retry index) alone, so a retry schedule is byte-reproducible
// from the seed and never reads the wall clock.
type RetryPolicy struct {
	// MaxRetries is the number of retries after the first attempt, so an op
	// is tried at most MaxRetries+1 times.
	MaxRetries int
	// BaseMS is the first backoff wait; retry r waits BaseMS·2^r.
	BaseMS float64
	// CapMS clamps the exponential growth (0 = uncapped).
	CapMS float64
	// JitterFrac spreads each wait by ±JitterFrac deterministically.
	JitterFrac float64
	// Seed selects the jitter sequence.
	Seed uint64
}

// DefaultRetryPolicy survives sustained 30 % transient fault rates with
// comfortable margin: 8 retries at base 50 ms capped at 2 s.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxRetries: 8, BaseMS: 50, CapMS: 2000, JitterFrac: 0.2, Seed: 2015}
}

// BackoffMS returns the modeled wait in milliseconds before retry number
// retry (0-based) of the named op: capped exponential growth with
// deterministic jitter.
func (p RetryPolicy) BackoffMS(op string, retry int) float64 {
	if p.BaseMS <= 0 {
		return 0
	}
	d := p.BaseMS * math.Pow(2, float64(retry))
	if p.CapMS > 0 && d > p.CapMS {
		d = p.CapMS
	}
	if p.JitterFrac > 0 {
		d *= 1 + float64(p.JitterFrac*(float64(2*hashUnit(p.Seed, "backoff", op, fmt.Sprintf("%d", retry)))-1))
	}
	return d
}

// OpTrace records how one store op went: how many attempts it took and the
// modeled backoff waits between them. Identical seeds produce identical
// traces — the chaos tests' reproducibility contract.
type OpTrace struct {
	Op        string
	Attempts  int
	BackoffMS []float64
}

// ExchangeOptions configures one exchange.
type ExchangeOptions struct {
	// Container and Blob name the uploaded BLOB (defaults: "exchange",
	// "blob"; a block exchange derives its piece names from Blob). A
	// missing container is created; an existing one is reused.
	Container string
	Blob      string
	// Retry is the backoff schedule; the zero value means no retries.
	Retry RetryPolicy
	// OpTimeout, when positive, bounds the real time of each store op. An
	// op that overruns counts as a transient failure and is retried.
	OpTimeout time.Duration
	// Cleanup deletes the uploaded BLOBs (with the same retry schedule)
	// after the round trip is verified.
	Cleanup bool
	// Limits bounds what the receiving VM will decompress; the zero value
	// applies the compress package defaults.
	Limits compress.Limits
}

// ExchangeReport is the outcome of one fault-tolerant exchange: modeled
// per-stage times, the retry traces, and the compression summary.
type ExchangeReport struct {
	Codec           string
	OriginalBases   int
	CompressedBytes int
	// FrameBytes is what actually travels: the codec payload sealed inside
	// armored frames (header + checksums), plus a block container's
	// manifest.
	FrameBytes  int
	BitsPerBase float64
	// Modeled stage times. Upload/Download charge the full op cost per
	// attempt (a failed PUT still converted and pushed the stream), and
	// RetryWaitMS adds the modeled backoff waits.
	CompressMS   float64
	DecompressMS float64
	UploadMS     float64
	DownloadMS   float64
	RetryWaitMS  float64
	Traces       []OpTrace
}

// TotalTimeMS is the end-to-end modeled exchange cost, backoff included.
func (r ExchangeReport) TotalTimeMS() float64 {
	return r.CompressMS + r.DecompressMS + r.UploadMS + r.DownloadMS + r.RetryWaitMS
}

// AttemptCount sums store-op attempts across the traces.
func (r ExchangeReport) AttemptCount() int {
	n := 0
	for _, tr := range r.Traces {
		n += tr.Attempts
	}
	return n
}

// Exchange runs the paper's Figure 1 pipeline against a possibly-faulty
// store: compress src with the named codec on the client VM, seal the
// stream into one armored frame, upload it as the BLOB opts.Blob, download
// it at the fixed Azure VM, and restore it through the hardened decode
// path. Integrity is proven the way a real receiving VM must prove it —
// from the frame's own checksums over the payload and the restored
// output — not by comparing against source bytes the receiver would never
// have. Transient store failures (and per-op timeouts) are retried under
// opts.Retry; permanent failures and ctx cancellation abort immediately; a
// corrupted download surfaces as compress.ErrCorrupt. On failure the
// returned report still carries the traces collected so far.
//
// Observability rides the context: metrics land in obs.Metrics(ctx) and a
// "cloud.exchange" span (with per-op child spans inside retryOp) is opened
// when obs.WithTracer installed a tracer. All recorded figures are modeled
// or byte counts, so instrumentation never perturbs the deterministic
// report.
func Exchange(ctx context.Context, client VM, store Store, codecName string, src []byte, opts ExchangeOptions) (ExchangeReport, error) {
	rep, err := exchange(ctx, client, store, codecName, src, opts, 1, func(reg *obs.Registry, blob string, rep *BlockExchangeReport) ([]piece, compress.Stats, error) {
		codec, err := compress.New(codecName)
		if err != nil {
			return nil, compress.Stats{}, err
		}
		data, cst, err := codec.Compress(src)
		compress.ObserveCompress(reg, codec.Name(), len(src), len(data), cst, err)
		if err != nil {
			return nil, cst, fmt.Errorf("cloud: compress: %w", err)
		}
		rep.CompressedBytes = len(data)
		return []piece{{blob: blob, data: compress.Seal(codecName, src, data)}}, cst, nil
	})
	return rep.ExchangeReport, err
}

// piece is one BLOB an exchange moves. tag qualifies the op name in the
// piece's trace, backoff jitter and timeout errors: empty for the one-frame
// exchange ("put"), ":<blob>" for a block piece ("put:<blob>"). Metrics and
// spans always carry the bare op, so their series count stays fixed no
// matter how many BLOBs an exchange names.
type piece struct {
	blob, tag string
	data      []byte
}

// packFunc is the step in which Exchange and ExchangeBlocks differ: it
// compresses src into the pieces that travel under the exchange's blob
// name, fills the report's payload figures, and returns the compress-side
// stats.
type packFunc func(reg *obs.Registry, blob string, rep *BlockExchangeReport) ([]piece, compress.Stats, error)

// exchange is the one pipeline behind Exchange and ExchangeBlocks. After
// pack it moves every piece through a transfer pool of at most jobs
// workers, each piece under its own retry schedule, charges each piece's
// modeled transfer once per attempt, and restores the pieces in order
// through the one container reader (openPieces), which opens a CXA1
// frame as its one-block case and verifies either format from its own
// checksums.
func exchange(ctx context.Context, client VM, store Store, codecName string, src []byte, opts ExchangeOptions, jobs int, pack packFunc) (rep BlockExchangeReport, err error) {
	rep.Codec, rep.OriginalBases = codecName, len(src)
	if store == nil {
		return rep, fmt.Errorf("cloud: nil store")
	}
	if opts.Container == "" {
		opts.Container = "exchange"
	}
	if opts.Blob == "" {
		opts.Blob = "blob"
	}
	if err := ctx.Err(); err != nil {
		return rep, err
	}

	reg := obs.Metrics(ctx)
	var span *obs.Span
	ctx, span = obs.Start(ctx, "cloud.exchange")
	span.SetAttr("codec", codecName)
	defer func() {
		span.SetAttr("blocks", rep.Blocks)
		span.SetAttr("frame_bytes", rep.FrameBytes)
		span.SetAttr("retry_wait_ms", rep.RetryWaitMS)
		span.SetAttr("attempts", rep.AttemptCount())
		outcome := "ok"
		switch {
		case err == nil:
		case errors.Is(err, compress.ErrCorrupt):
			outcome = "corrupt"
			reg.Counter("dna_exchange_corrupt_total", "Exchanges that delivered a corrupt frame.").Inc()
		default:
			outcome = "error"
		}
		if err != nil {
			span.SetAttr("error", err.Error())
		}
		reg.Counter("dna_exchange_total", "Exchange pipelines run.", "outcome", outcome).Inc()
		span.End()
	}()

	pieces, cst, err := pack(reg, opts.Blob, &rep)
	if err != nil {
		return rep, err
	}
	for _, p := range pieces {
		rep.FrameBytes += len(p.data)
	}
	rep.BitsPerBase = compress.Ratio(len(src), rep.CompressedBytes)
	rep.CompressMS = client.ExecMS(cst)

	if err := store.CreateContainer(opts.Container); err != nil && !errors.Is(err, ErrContainerExists) {
		return rep, fmt.Errorf("cloud: create container: %w", err)
	}

	// move runs one store op over every piece and books its traces. Traces
	// land in piece order no matter how the pool interleaved.
	move := func(op string, f func(i int) error) ([]OpTrace, error) {
		traces, err := transferPool(ctx, opts, jobs, op, pieces, f)
		rep.Traces = append(rep.Traces, traces...)
		rep.RetryWaitMS = sumBackoff(rep.Traces)
		return traces, err
	}

	up, err := move("put", func(i int) error {
		return store.Put(opts.Container, pieces[i].blob, pieces[i].data)
	})
	rep.UploadMS = transferMS(pieces, up, client.UploadMS)
	if err != nil {
		return rep, fmt.Errorf("cloud: upload: %w", err)
	}
	reg.Counter("dna_exchange_up_bytes_total", "Frame bytes uploaded (successful PUTs).").Add(uint64(rep.FrameBytes))

	fetched := make([][]byte, len(pieces))
	down, err := move("get", func(i int) error {
		var gerr error
		fetched[i], gerr = store.Get(opts.Container, pieces[i].blob)
		return gerr
	})
	rep.DownloadMS = transferMS(pieces, down, AzureVM.DownloadMS)
	if err != nil {
		return rep, fmt.Errorf("cloud: download: %w", err)
	}
	received := 0
	for _, p := range fetched {
		received += len(p)
	}
	reg.Counter("dna_exchange_down_bytes_total", "Frame bytes downloaded (successful GETs).").Add(uint64(received))

	// The receiving VM restores and verifies from the received bytes alone:
	// header, index and payload checksums, contained codec execution, and
	// the restored output's length and checksum. No source bytes are
	// consulted. It holds the pieces as they were fetched (openPieces),
	// never hands the bases on, so it verifies block by block (Verify) and
	// holds one block of them at a time. The reader books its block
	// counters into reg.
	var restored int
	var dst compress.Stats
	rd, err := openPieces(reg, fetched, opts.Limits)
	if err == nil && rd.Codec() != codecName {
		err = compress.Corruptf("container records codec %q, want %q", rd.Codec(), codecName)
	} else if err == nil {
		dst, err = rd.Verify()
		restored = rd.Bases()
	}
	compress.ObserveDecompress(reg, codecName, received, restored, dst, err)
	if err != nil {
		return rep, fmt.Errorf("cloud: decompress: %w", err)
	}
	rep.DecompressMS = AzureVM.ExecMS(dst)

	if opts.Cleanup {
		if _, err := move("delete", func(i int) error {
			return store.Delete(opts.Container, pieces[i].blob)
		}); err != nil {
			return rep, fmt.Errorf("cloud: cleanup: %w", err)
		}
	}
	return rep, nil
}

// openPieces opens the pieces an exchange fetched without joining them:
// the first must be exactly the header and index (a CXA1 frame is its
// own), and piece k+1 is attached as block k's frame.
func openPieces(reg *obs.Registry, pieces [][]byte, lim compress.Limits) (*compress.BlockReader, error) {
	need, err := compress.BlockIndexLen(pieces[0], lim)
	if err != nil {
		return nil, err
	}
	if need != len(pieces[0]) {
		return nil, compress.Corruptf("blocks: manifest is %d bytes, its header and index %d", len(pieces[0]), need)
	}
	rd, err := compress.OpenBlockIndex(reg, pieces[0], lim)
	if err != nil {
		return nil, err
	}
	for k, frame := range pieces[1:] {
		if err := rd.AttachFrame(k, frame); err != nil {
			return nil, err
		}
	}
	return rd, nil
}

// transferMS charges each piece's modeled transfer once per attempt: a
// failed attempt still converted and pushed the whole piece.
func transferMS(pieces []piece, traces []OpTrace, cost func(sizeBytes int) float64) float64 {
	ms := 0.0
	for i, tr := range traces {
		ms += float64(cost(len(pieces[i].data)) * float64(tr.Attempts))
	}
	return ms
}

func sumBackoff(traces []OpTrace) float64 {
	total := 0.0
	for _, tr := range traces {
		for _, ms := range tr.BackoffMS {
			total += ms
		}
	}
	return total
}

// transferPool drives one store op per piece through a bounded worker
// pool, each piece under its own retryOp schedule. Results land in indexed
// slots; the returned traces are in piece order and the returned error is
// the first failure by index — both independent of scheduling.
func transferPool(ctx context.Context, opts ExchangeOptions, jobs int, op string, pieces []piece, f func(i int) error) ([]OpTrace, error) {
	traces := make([]OpTrace, len(pieces))
	errs := make([]error, len(pieces))
	if jobs > len(pieces) {
		jobs = len(pieces)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				traces[i], errs[i] = retryOp(ctx, opts, op, pieces[i], func() error {
					return f(i)
				})
			}
		}()
	}
	for i := range pieces {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return traces, err
		}
	}
	return traces, nil
}

// retryOp drives one store op on one piece through the retry schedule:
// transient failures and per-op timeouts are retried up to
// opts.Retry.MaxRetries times; permanent failures and external
// cancellation end the op at once. Each op gets its own child span
// (attributed with the piece's blob) plus attempt/outcome/backoff metrics
// labeled with the bare op.
func retryOp(ctx context.Context, opts ExchangeOptions, op string, p piece, f func() error) (tr OpTrace, err error) {
	label := op + p.tag
	tr = OpTrace{Op: label}
	reg := obs.Metrics(ctx)
	_, span := obs.Start(ctx, "exchange."+op)
	span.SetAttr("blob", p.blob)
	defer func() {
		span.SetAttr("attempts", tr.Attempts)
		span.SetAttr("retry_wait_ms", sumBackoff([]OpTrace{tr}))
		outcome := "ok"
		switch {
		case err == nil:
		case ctx.Err() != nil:
			outcome = "canceled"
		case IsTransient(err) || errors.Is(err, context.DeadlineExceeded):
			// Includes retry exhaustion: the gave-up error wraps the last
			// transient failure.
			outcome = "transient"
		default:
			outcome = "permanent"
		}
		if err != nil {
			span.SetAttr("error", err.Error())
		}
		reg.Counter("dna_exchange_ops_total", "Store operations by final outcome.", "op", op, "outcome", outcome).Inc()
		reg.Counter("dna_exchange_attempts_total", "Store operation attempts, retries included.", "op", op).Add(uint64(tr.Attempts))
		span.End()
	}()
	for retry := 0; ; retry++ {
		if err := ctx.Err(); err != nil {
			return tr, err
		}
		tr.Attempts++
		err := runOp(ctx, label, opts.OpTimeout, f)
		if err == nil {
			return tr, nil
		}
		if cerr := ctx.Err(); cerr != nil {
			// External cancellation, not a per-op deadline: don't retry.
			return tr, cerr
		}
		if !IsTransient(err) && !errors.Is(err, context.DeadlineExceeded) {
			return tr, err
		}
		if retry >= opts.Retry.MaxRetries {
			return tr, fmt.Errorf("cloud: %s gave up after %d attempts: %w", label, tr.Attempts, err)
		}
		wait := opts.Retry.BackoffMS(label, retry)
		tr.BackoffMS = append(tr.BackoffMS, wait)
		reg.Counter("dna_exchange_retries_total", "Transient-failure retries scheduled.", "op", op).Inc()
		reg.Histogram("dna_exchange_backoff_ms", "Modeled backoff waits between attempts.", obs.DefMSBuckets(), "op", op).Observe(wait)
	}
}

// OpTimeoutError names the store op whose per-op deadline expired, so a
// trace or RunError says "get timed out after 50ms" instead of a generic
// deadline message. It unwraps to context.DeadlineExceeded, keeping the
// retry classification (timeouts are transient) unchanged.
type OpTimeoutError struct {
	Op      string
	Timeout time.Duration
}

func (e *OpTimeoutError) Error() string {
	return fmt.Sprintf("cloud: %s timed out after %v", e.Op, e.Timeout)
}

// Unwrap lets errors.Is(err, context.DeadlineExceeded) keep working.
func (e *OpTimeoutError) Unwrap() error { return context.DeadlineExceeded }

// runOp executes f, bounding its real time by timeout when set. The op runs
// in its own goroutine only when a timeout applies; an abandoned op holds a
// buffered channel so a late finish never blocks. A deadline expiry is
// reported as an *OpTimeoutError carrying the op name (via
// context.WithTimeoutCause), not a bare DeadlineExceeded.
func runOp(ctx context.Context, op string, timeout time.Duration, f func() error) error {
	if timeout <= 0 {
		return f()
	}
	opCtx, cancel := context.WithTimeoutCause(ctx, timeout, &OpTimeoutError{Op: op, Timeout: timeout})
	defer cancel()
	done := make(chan error, 1)
	//lint:ignore goroutinebound timeout abandonment is the point: the buffered channel lets a late op finish without blocking, and f holds no resources past its return
	go func() { done <- f() }()
	select {
	case err := <-done:
		return err
	case <-opCtx.Done():
		// Cause names the op for a per-op deadline; external cancellation
		// keeps the parent's cause untouched.
		return context.Cause(opCtx)
	}
}
