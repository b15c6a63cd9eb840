package compress

import (
	"errors"
	"math"
)

// Default resource ceilings for decompressing untrusted frames. They are
// far above anything the benchmark corpus produces while still bounding
// what a hostile header can make a receiver allocate.
const (
	// DefaultMaxCompressed caps the accepted payload size (1 GiB).
	DefaultMaxCompressed = 1 << 30
	// DefaultMaxOutput caps the restored symbol count (1 Gbase).
	DefaultMaxOutput = 1 << 30

	// MaxHeaderPrealloc caps what a decoder may allocate up front on the
	// strength of a decoded size claim alone (1 MiB). A header field is an
	// attacker's assertion; until the payload has produced that many
	// symbols, memory is committed only up to this bound and grown by
	// append — so a hostile 20-byte frame claiming 2^34 bases costs the
	// receiver 1 MiB, not 16 GiB, before the truncated stream errors out.
	MaxHeaderPrealloc = 1 << 20
)

// HeaderPrealloc clamps a decoded size claim to the preallocation cap.
// Decoders use the result as the capacity hint for an append-grown output
// buffer: `out := make([]byte, 0, HeaderPrealloc(nBases))`. Legitimate
// large outputs still amortize via append's geometric growth; hostile
// claims never commit more than MaxHeaderPrealloc ahead of the bytes that
// justify it. dnalint's allocguard analyzer recognizes this helper as a
// sanctioned bound.
func HeaderPrealloc(claim uint64) int {
	if claim > MaxHeaderPrealloc {
		return MaxHeaderPrealloc
	}
	return int(claim)
}

// Limits bounds what SafeDecompress will accept from an untrusted frame.
// The zero value applies the package defaults; a negative field means
// unlimited (trusted local data of arbitrary size).
type Limits struct {
	// MaxCompressed is the largest payload, in bytes, to hand a codec.
	MaxCompressed int
	// MaxOutput is the largest symbol count a frame may claim to restore.
	MaxOutput int
}

// effective resolves the zero-value and unlimited conventions.
func (l Limits) effective() (maxCompressed, maxOutput int) {
	maxCompressed, maxOutput = l.MaxCompressed, l.MaxOutput
	if maxCompressed == 0 {
		maxCompressed = DefaultMaxCompressed
	} else if maxCompressed < 0 {
		maxCompressed = math.MaxInt
	}
	if maxOutput == 0 {
		maxOutput = DefaultMaxOutput
	} else if maxOutput < 0 {
		maxOutput = math.MaxInt
	}
	return maxCompressed, maxOutput
}

// SafeDecompress restores the symbols from an armored frame (Seal output)
// without trusting a single byte of it. It validates the frame (Open),
// enforces lim on both the payload size and the claimed output size before
// running any codec, contains codec panics, and verifies the restored
// output's length and checksum against the header. name, when non-empty,
// additionally requires the frame to record that codec — a receiver pinning
// the codec it negotiated.
//
// Every failure — framing, limits, codec error, codec panic, output
// mismatch — satisfies errors.Is(err, ErrCorrupt), so callers classify
// hostile input with one check and never crash on it.
func SafeDecompress(name string, data []byte, lim Limits) ([]byte, Stats, error) {
	return safeDecompress(nil, name, data, lim)
}

// safeDecompress is SafeDecompress restoring into dst[:0]'s backing array
// through Codec.DecompressTo: the one decode path of every frame and
// every block.
func safeDecompress(dst []byte, name string, data []byte, lim Limits) ([]byte, Stats, error) {
	maxCompressed, maxOutput := lim.effective()
	fr, err := Open(data)
	if err != nil {
		return nil, Stats{}, err
	}
	if name != "" && fr.Codec != name {
		return nil, Stats{}, Corruptf("frame records codec %q, want %q", fr.Codec, name)
	}
	if len(fr.Payload) > maxCompressed {
		return nil, Stats{}, Corruptf("payload is %d bytes, limit %d", len(fr.Payload), maxCompressed)
	}
	if fr.Bases > maxOutput {
		return nil, Stats{}, Corruptf("frame claims %d symbols, limit %d", fr.Bases, maxOutput)
	}
	codec, err := New(fr.Codec)
	if err != nil {
		return nil, Stats{}, Corruptf("frame records unknown codec %q", fr.Codec)
	}
	out, st, err := decompressRecovering(codec, dst, fr.Payload)
	if err != nil {
		if errors.Is(err, ErrCorrupt) {
			return nil, Stats{}, err
		}
		return nil, Stats{}, Corruptf("codec %s: %v", fr.Codec, err)
	}
	if len(out) != fr.Bases {
		return nil, Stats{}, Corruptf("restored %d symbols, frame claims %d", len(out), fr.Bases)
	}
	if got := Checksum(out); got != fr.OutputSum {
		return nil, Stats{}, Corruptf("restored output checksum mismatch (stored %08x, computed %08x)", fr.OutputSum, got)
	}
	return out, st, nil
}

// decompressRecovering runs codec.DecompressTo with panic containment: a
// decoder tripped up by bytes the checksums could not rule out (a hostile
// frame with internally consistent checksums) surfaces as ErrCorrupt
// instead of crashing the receiving process.
func decompressRecovering(codec Codec, dst, payload []byte) (out []byte, st Stats, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, st = nil, Stats{}
			err = Corruptf("codec %s panicked: %v", codec.Name(), r)
		}
	}()
	return codec.DecompressTo(dst, payload)
}
