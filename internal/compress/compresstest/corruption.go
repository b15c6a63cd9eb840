package compresstest

import (
	"bytes"
	"errors"
	"testing"

	"github.com/srl-nuces/ctxdna/internal/compress"
	"github.com/srl-nuces/ctxdna/internal/synth"
)

// CorruptionSuite is the adversarial half of the conformance suite: it
// seals streams from the named codec into armored frames, mutates them the
// way an untrustworthy store would — truncation, bit flips, extension,
// header tampering, and payload tampering with internally consistent
// checksums — and demands that compress.SafeDecompress rejects every
// mutant with an error satisfying errors.Is(err, compress.ErrCorrupt),
// without panicking and without ever returning wrong symbols as success.
// The container reader, which opens a frame as its one-block case, must
// reach the same verdict through Decompress, Verify and Slice(0, Bases()).
func CorruptionSuite(t *testing.T, name string) {
	t.Helper()
	sources := []struct {
		name string
		data []byte
	}{
		{"Empty", []byte{}},
		{"Tiny", []byte{0, 1, 2, 3}},
		{"Periodic", bytes.Repeat([]byte{0, 0, 1, 3}, 1500)},
		{"Random", synth.Profile{Length: 8000, GC: 0.5}.Generate(404)},
	}
	for _, srcCase := range sources {
		src := srcCase.data
		t.Run(srcCase.name, func(t *testing.T) {
			c, err := compress.New(name)
			if err != nil {
				t.Fatal(err)
			}
			payload, _, err := c.Compress(src)
			if err != nil {
				t.Fatalf("%s: compress: %v", name, err)
			}
			frame := compress.Seal(name, src, payload)

			// The unmutated frame must restore exactly — otherwise every
			// rejection below would be vacuous.
			got, _, err := compress.SafeDecompress(name, frame, compress.Limits{})
			if err != nil {
				t.Fatalf("%s: pristine frame rejected: %v", name, err)
			}
			if !bytes.Equal(got, src) {
				t.Fatalf("%s: pristine frame restored %d symbols, want %d", name, len(got), len(src))
			}
			// The container reader opens a frame as its one block, so it
			// must reach SafeDecompress's verdict on the pristine frame and
			// on every mutant.
			cases := append([]mutation{{name: "Pristine", data: frame, mayBeLossless: true}}, frameMutations(name, src, payload, frame)...)
			for _, m := range cases {
				m := m
				t.Run(m.name, func(t *testing.T) {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("%s/%s: decode panicked: %v", name, m.name, r)
						}
					}()
					verdict := func(path string, out []byte, err error) bool {
						if err == nil {
							// A resealed mutant may touch only don't-care bits
							// (bit-packing padding); accepting it is fine if
							// and only if the restored symbols are still exact.
							if !m.mayBeLossless || !bytes.Equal(out, src) {
								t.Fatalf("%s/%s: %s accepted a corrupted frame", name, m.name, path)
							}
						} else if !errors.Is(err, compress.ErrCorrupt) {
							t.Fatalf("%s/%s: %s error %v does not satisfy ErrCorrupt", name, m.name, path, err)
						}
						return err == nil
					}
					out, _, err := compress.SafeDecompress("", m.data, compress.Limits{})
					accepted := verdict("SafeDecompress", out, err)
					agrees := func(path string, out []byte, err error) {
						if verdict(path, out, err) != accepted {
							t.Fatalf("%s/%s: %s verdict (%v) differs from SafeDecompress", name, m.name, path, err)
						}
					}
					r, err := compress.OpenBlocks(m.data, compress.Limits{})
					if err != nil {
						agrees("OpenBlocks", nil, err)
						return
					}
					out, _, err = r.Decompress()
					agrees("Decompress", out, err)
					_, err = r.Verify() // judged with the symbols Decompress restored
					agrees("Verify", out, err)
					if r.Bases() > 0 { // Slice(0, 0) reads no block: nothing to refuse
						out, _, err = r.Slice(0, r.Bases())
						agrees("Slice", out, err)
					}
				})
			}
		})
	}
}

type mutation struct {
	name string
	data []byte
	// mayBeLossless marks mutants whose checksums are internally consistent
	// and whose tampering might not change decoded symbols (padding bits):
	// success is tolerated iff the output is byte-identical to the source.
	mayBeLossless bool
}

// frameMutations builds the mutant table for one sealed frame. Checksum
// mutants exercise the frame layer; the resealed mutants carry internally
// consistent checksums so the tampered bytes reach the codec (or the
// output verification) and exercise the hardened decode path itself.
func frameMutations(codec string, src, payload, frame []byte) []mutation {
	clone := func(b []byte) []byte { return append([]byte(nil), b...) }
	flip := func(b []byte, i int) []byte {
		out := clone(b)
		out[i%len(out)] ^= 0x40
		return out
	}
	sum := compress.Checksum(src)

	muts := []mutation{
		// Truncation: from nothing left through cut headers to a clipped tail.
		{name: "TruncateEmpty", data: nil},
		{name: "TruncateMagic", data: clone(frame[:3])},
		{name: "TruncateHeader", data: clone(frame[:compress.Overhead(codec)-2])},
		{name: "TruncateTail", data: clone(frame[:len(frame)-1])},
		{name: "TruncateHalf", data: clone(frame[:len(frame)/2])},
		// Extension: trailing garbage after a frame that is otherwise intact.
		{name: "ExtendOneByte", data: append(clone(frame), 0x00)},
		{name: "ExtendBlock", data: append(clone(frame), bytes.Repeat([]byte{0xA5}, 64)...)},
		// Bit flips across the regions: magic, version, name, counts,
		// checksums, payload. Every one must trip a checksum or field check.
		{name: "FlipMagic", data: flip(frame, 0)},
		{name: "FlipVersion", data: flip(frame, 4)},
		{name: "FlipCodecName", data: flip(frame, 6)},
		{name: "FlipBases", data: flip(frame, 6+len(codec)+2)},
		{name: "FlipOutputSum", data: flip(frame, 22+len(codec))},
		{name: "FlipHeaderSum", data: flip(frame, 30+len(codec))},
		// Header tampering with recomputed header checksums: the frame
		// opens clean, so the lie is only caught downstream.
		{name: "TamperBasesResealed", data: compress.SealSum(codec, len(src)+1, sum, payload)},
		{name: "TamperOutputSumResealed", data: compress.SealSum(codec, len(src), sum^0xDEADBEEF, payload)},
	}
	if len(payload) > 0 {
		// Payload bit flip caught by the payload checksum.
		muts = append(muts, mutation{name: "FlipPayload", data: flip(frame, compress.Overhead(codec)+len(payload)/2)})
		// Payload tampered and resealed with matching checksums: the codec
		// must either reject the stream itself, or restore symbols that fail
		// the output checksum, or — when only padding bits changed — restore
		// the exact source. Never a panic, never wrong symbols as success.
		tampered := clone(payload)
		tampered[len(tampered)/2] ^= 0xFF
		muts = append(muts, mutation{name: "TamperPayloadResealed", data: compress.SealSum(codec, len(src), sum, tampered), mayBeLossless: true})
		truncated := clone(payload[:len(payload)-1])
		muts = append(muts, mutation{name: "TruncatePayloadResealed", data: compress.SealSum(codec, len(src), sum, truncated), mayBeLossless: true})
	}
	if other := otherCodec(codec); other != "" {
		// A frame honestly sealed for one codec but recorded as another:
		// the foreign decoder sees well-checksummed gibberish.
		muts = append(muts, mutation{name: "WrongCodecResealed", data: compress.SealSum(other, len(src), sum, payload), mayBeLossless: true})
	}
	return muts
}

// otherCodec picks a registered codec different from name, if any.
func otherCodec(name string) string {
	for _, n := range compress.Names() {
		if n != name {
			return n
		}
	}
	return ""
}
