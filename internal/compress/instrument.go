package compress

import (
	"errors"

	"github.com/srl-nuces/ctxdna/internal/obs"
)

// opMetrics is the pre-resolved series set for one (codec, op) pair.
// Resolving series once at construction keeps the per-call cost of an
// instrumented codec to a handful of atomic operations, which is what lets
// BenchmarkInstrumentOverhead stay under its budget.
type opMetrics struct {
	calls    *obs.Counter
	corrupt  *obs.Counter
	failures *obs.Counter
	inBytes  *obs.Counter
	outBytes *obs.Counter
	modelMS  *obs.Histogram
	peakMem  *obs.Gauge
}

func newOpMetrics(reg *obs.Registry, codec, op string) opMetrics {
	reg = obs.OrDefault(reg)
	labels := []string{"codec", codec, "op", op}
	return opMetrics{
		calls:    reg.Counter("dna_codec_calls_total", "Codec operations executed.", labels...),
		corrupt:  reg.Counter("dna_codec_corrupt_total", "Codec operations failed with the corrupt-input taxonomy.", labels...),
		failures: reg.Counter("dna_codec_failures_total", "Codec operations failed outside the corrupt-input taxonomy.", labels...),
		inBytes:  reg.Counter("dna_codec_in_bytes_total", "Bytes handed to the codec.", labels...),
		outBytes: reg.Counter("dna_codec_out_bytes_total", "Bytes produced by the codec.", labels...),
		modelMS:  reg.Histogram("dna_codec_model_ms", "Modeled codec work in milliseconds (Stats.WorkNS).", obs.DefMSBuckets(), labels...),
		peakMem:  reg.Gauge("dna_codec_peak_mem_bytes", "Largest modeled peak memory seen (Stats.PeakMem).", labels...),
	}
}

// observe records one codec operation. Errors are classified with the
// repository's error taxonomy: ErrCorrupt-wrapped failures count as corrupt
// input, everything else as an internal failure.
func (m opMetrics) observe(in, out int, st Stats, err error) {
	m.calls.Inc()
	m.inBytes.Add(uint64(in))
	if err != nil {
		if errors.Is(err, ErrCorrupt) {
			m.corrupt.Inc()
		} else {
			m.failures.Inc()
		}
		return
	}
	m.outBytes.Add(uint64(out))
	m.modelMS.Observe(float64(st.WorkNS) / 1e6)
	m.peakMem.SetMax(float64(st.PeakMem))
}

// instrumented decorates a Codec with per-operation metrics. It records
// only modeled figures (byte counts, Stats), never wall time, so wrapping a
// codec cannot perturb deterministic outputs.
type instrumented struct {
	inner Codec
	comp  opMetrics
	dec   opMetrics
}

// Instrument wraps c so every Compress, Decompress and DecompressTo call
// records call counts, byte volumes, modeled cost and error-taxonomy
// outcomes into reg (nil means the default registry). Wrapping an
// already-instrumented codec returns it unchanged to avoid double counting.
func Instrument(reg *obs.Registry, c Codec) Codec {
	if c == nil {
		return nil
	}
	if w, ok := c.(*instrumented); ok {
		return w
	}
	return &instrumented{
		inner: c,
		comp:  newOpMetrics(reg, c.Name(), "compress"),
		dec:   newOpMetrics(reg, c.Name(), "decompress"),
	}
}

func (w *instrumented) Name() string { return w.inner.Name() }

func (w *instrumented) Compress(src []byte) ([]byte, Stats, error) {
	out, st, err := w.inner.Compress(src)
	w.comp.observe(len(src), len(out), st, err)
	return out, st, err
}

func (w *instrumented) Decompress(data []byte) ([]byte, Stats, error) {
	return w.DecompressTo(nil, data)
}

func (w *instrumented) DecompressTo(dst, data []byte) ([]byte, Stats, error) {
	out, st, err := w.inner.DecompressTo(dst, data)
	w.dec.observe(len(data), len(out), st, err)
	return out, st, err
}

// ObserveCompress records one compress operation without wrapping a codec —
// for call sites that already ran the codec (cached pipelines, the hardened
// decode path) and only need the books updated.
func ObserveCompress(reg *obs.Registry, codec string, in, out int, st Stats, err error) {
	newOpMetrics(reg, codec, "compress").observe(in, out, st, err)
}

// ObserveDecompress is ObserveCompress for the decompress direction.
func ObserveDecompress(reg *obs.Registry, codec string, in, out int, st Stats, err error) {
	newOpMetrics(reg, codec, "decompress").observe(in, out, st, err)
}
