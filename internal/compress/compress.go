// Package compress defines the codec abstraction shared by every compression
// algorithm in this repository and a registry through which the framework,
// the experiment grid and the CLI tools enumerate them.
//
// All codecs operate on nucleotide symbol sequences (values 0..3, package
// seq). Codecs that internally work on text — gzip compresses the ASCII
// FASTA bytes exactly as the paper's NCBI pipeline did — perform their own
// conversion.
//
// Alongside the compressed bytes, codecs report deterministic cost
// statistics: a modeled work figure (nanoseconds of single-threaded
// execution on a 2400 MHz reference core, the paper's i5 machine) and the
// peak size of their working state. The cloud layer scales these into
// simulated contexts; the benchmark harness cross-checks the model against
// real wall-clock measurements.
package compress

import (
	"errors"
	"fmt"
	"sort"
)

// ReferenceMHz is the CPU speed the WorkNS figures are calibrated against:
// the 2.4 GHz i5 that hosted the paper's experiments.
const ReferenceMHz = 2400

// Stats reports the deterministic cost of one codec operation.
type Stats struct {
	// WorkNS is modeled single-thread execution time on the reference core.
	WorkNS int64
	// PeakMem is the peak working-state size in bytes (models, match
	// tables, buffers) — the quantity behind the paper's RAM_USED variable.
	PeakMem int
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.WorkNS += other.WorkNS
	if other.PeakMem > s.PeakMem {
		s.PeakMem = other.PeakMem
	}
}

// Codec is a DNA sequence compressor.
type Codec interface {
	// Name returns the registry identifier ("dnax", "gencompress", ...).
	Name() string
	// Compress encodes a symbol sequence (codes 0..3) into a self-framing
	// byte stream.
	Compress(src []byte) ([]byte, Stats, error)
	// Decompress restores the exact symbol sequence from a stream produced
	// by the same codec. Every codec's is DecompressTo(nil, data).
	Decompress(data []byte) ([]byte, Stats, error)
	// DecompressTo is Decompress restoring into dst[:0]'s backing array,
	// grown by append once its capacity runs out, so a caller that hands
	// it room for the output gets the symbols back in that room. It
	// preallocates no more than HeaderPrealloc of a size claim, reads
	// only the symbols it restored in this call (a repeat never reaches
	// below dst[0]), and gives Decompress's symbols and verdict whatever
	// dst held before.
	DecompressTo(dst, data []byte) ([]byte, Stats, error)
}

// ErrCorrupt reports a malformed or truncated compressed stream.
var ErrCorrupt = errors.New("compress: corrupt stream")

// Corruptf wraps ErrCorrupt with detail.
func Corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
}

// Ratio returns the compression ratio original/compressed in bits per base
// terms: bits of output per input base. Lower is better; the floor for a
// 4-letter alphabet without repeats is 2.0.
func Ratio(originalBases, compressedBytes int) float64 {
	if originalBases == 0 {
		return 0
	}
	return float64(compressedBytes*8) / float64(originalBases)
}

// registry maps codec name to constructor. Constructors return fresh codec
// instances so that concurrent experiments never share adaptive state.
var registry = map[string]func() Codec{}

// Register adds a codec constructor under its name. It panics on duplicate
// registration — codecs register from init functions, so a duplicate is a
// programming error worth failing loudly on.
func Register(name string, ctor func() Codec) {
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("compress: duplicate codec %q", name))
	}
	registry[name] = ctor
}

// ErrUnknownCodec reports a codec name absent from the registry. Decode
// paths that reach it with a name taken from an untrusted container re-wrap
// it as ErrCorrupt (the name is attacker-controlled data there, not caller
// API misuse).
var ErrUnknownCodec = errors.New("compress: unknown codec")

// New returns a fresh instance of the named codec.
func New(name string) (Codec, error) {
	ctor, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("%w %q (have %v)", ErrUnknownCodec, name, Names())
	}
	return ctor(), nil
}

// Names returns all registered codec names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
