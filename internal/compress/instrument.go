package compress

import (
	"errors"

	"github.com/srl-nuces/ctxdna/internal/obs"
)

// opMetrics is the series set for one (codec, op) pair. Recording one
// operation costs the series lookups plus a handful of atomic operations,
// which BenchmarkInstrumentOverhead holds under its budget.
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

// ObserveCompress records one compress operation of the named codec into
// reg (nil means the default registry): the call, its byte volumes, its
// modeled cost and, on failure, its error-taxonomy outcome. Call it after
// the codec ran, with what the call took and returned. It records only
// modeled figures (byte counts, Stats), never wall time, so recording
// cannot perturb deterministic outputs.
func ObserveCompress(reg *obs.Registry, codec string, in, out int, st Stats, err error) {
	newOpMetrics(reg, codec, "compress").observe(in, out, st, err)
}

// ObserveDecompress is ObserveCompress for the decompress direction.
func ObserveDecompress(reg *obs.Registry, codec string, in, out int, st Stats, err error) {
	newOpMetrics(reg, codec, "decompress").observe(in, out, st, err)
}
