package compresstest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"github.com/srl-nuces/ctxdna/internal/compress"
	"github.com/srl-nuces/ctxdna/internal/synth"
)

// BlockSuite is the conformance suite for the block engine, run per codec:
// every property the multi-block container promises, proven against the
// codec's own whole-slice behavior.
//
//   - RoundTripBoundaries: containers at sizes 0, 1, blockSize-1,
//     blockSize, blockSize+1 and non-multiple tails restore exactly, and
//     Verify accepts them.
//   - SeekEquivalence: random (off, len) probes through Slice equal the
//     corresponding slice of the full decode — the property behind -seek —
//     on the container and on the same source sealed as one CXA1 frame;
//     Verify accepts both.
//   - JobsDeterminism: jobs 1, 2 and 8 produce byte-identical containers.
//   - DifferentialWholeSlice: on benchmark-corpus inputs, the block path
//     restores byte-identically to the codec's whole-slice round trip, and
//     the whole-slice path is untouched by the block engine's existence.
const (
	// blockSuiteBlockSize keeps suite containers many blocks long while the
	// slowest codecs stay fast enough to probe a thousand times.
	blockSuiteBlockSize = 512
	// blockSuiteProbes is the per-codec random (off, len) probe count for
	// the seek-equivalence property.
	blockSuiteProbes = 1000
)

// BlockSuite runs the block-engine conformance properties against the
// named registered codec.
func BlockSuite(t *testing.T, name string) {
	t.Helper()
	const bs = blockSuiteBlockSize

	t.Run("RoundTripBoundaries", func(t *testing.T) {
		for _, n := range []int{0, 1, bs - 1, bs, bs + 1, 2 * bs, 5*bs + 123} {
			src := synth.Profile{Length: n, GC: 0.5}.Generate(int64(600 + n))
			container, _, err := compress.BlockCompressObserved(nil, name, src, compress.BlockOptions{BlockSize: bs, Jobs: 2})
			if err != nil {
				t.Fatalf("%s: n=%d: %v", name, n, err)
			}
			got, _, err := compress.SafeDecompressAny(name, container, compress.Limits{})
			if err != nil {
				t.Fatalf("%s: n=%d: decode: %v", name, n, err)
			}
			if !bytes.Equal(got, src) {
				t.Fatalf("%s: n=%d: block round trip mismatch at %d", name, n, firstDiff(got, src))
			}
			verifies(t, name, container)
		}
	})

	t.Run("SeekEquivalence", func(t *testing.T) {
		src := synth.Profile{Length: 7*bs + 209, GC: 0.45, RepeatProb: 0.01, RepeatMin: 20, RepeatMax: 200}.Generate(77)
		container, _, err := compress.BlockCompressObserved(nil, name, src, compress.BlockOptions{BlockSize: bs})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// The same source sealed as one CXA1 frame is the reader's
		// one-block case and must answer every probe the same way.
		frame, err := compress.CompressObserved(nil, nil, name, src)
		if err != nil {
			t.Fatalf("%s: frame: %v", name, err)
		}
		for _, sealed := range [][]byte{container, frame.Data} {
			format := string(sealed[:4]) // the magic: CXB1 or CXA1
			r, err := compress.OpenBlocks(sealed, compress.Limits{})
			if err != nil {
				t.Fatalf("%s: %s: OpenBlocks: %v", name, format, err)
			}
			full, _, err := r.Decompress()
			if err != nil {
				t.Fatalf("%s: %s: full decode: %v", name, format, err)
			}
			if !bytes.Equal(full, src) {
				t.Fatalf("%s: %s: full decode mismatch", name, format)
			}
			verifies(t, name, sealed)
			rng := rand.New(rand.NewSource(2015))
			for probe := 0; probe < blockSuiteProbes; probe++ {
				off := rng.Intn(len(src) + 1)
				n := rng.Intn(len(src) - off + 1)
				got, _, err := r.Slice(off, n)
				if err != nil {
					t.Fatalf("%s: %s: Slice(%d, %d): %v", name, format, off, n, err)
				}
				if !bytes.Equal(got, full[off:off+n]) {
					t.Fatalf("%s: %s: probe %d: Slice(%d, %d) differs from full decode", name, format, probe, off, n)
				}
			}
		}
	})

	t.Run("JobsDeterminism", func(t *testing.T) {
		src := synth.Profile{Length: 6*bs + 77, GC: 0.5, RepeatProb: 0.005, RepeatMin: 16, RepeatMax: 128}.Generate(88)
		var first []byte
		for _, jobs := range []int{1, 2, 8} {
			container, _, err := compress.BlockCompressObserved(nil, name, src, compress.BlockOptions{BlockSize: bs, Jobs: jobs})
			if err != nil {
				t.Fatalf("%s: jobs=%d: %v", name, jobs, err)
			}
			if first == nil {
				first = container
			} else if !bytes.Equal(first, container) {
				t.Fatalf("%s: jobs=%d container differs from jobs=1", name, jobs)
			}
		}
	})

	t.Run("DifferentialWholeSlice", func(t *testing.T) {
		// The block path must restore byte-identically to the whole-slice
		// path on real corpus shapes, and the whole-slice stream itself must
		// be exactly what a frame round trip produces — the grid-compat
		// guarantee that experiment CSVs cannot move.
		for _, prof := range synth.Benchmark() {
			if prof.Length > 60000 {
				continue
			}
			src := prof.Generate(2015)
			c, err := compress.New(name)
			if err != nil {
				t.Fatal(err)
			}
			payload, _, err := c.Compress(src)
			if err != nil {
				t.Fatalf("%s: %s: whole-slice compress: %v", name, prof.Name, err)
			}
			whole, _, err := compress.SafeDecompress(name, compress.Seal(name, src, payload), compress.Limits{})
			if err != nil {
				t.Fatalf("%s: %s: whole-slice decode: %v", name, prof.Name, err)
			}
			container, _, err := compress.BlockCompressObserved(nil, name, src, compress.BlockOptions{BlockSize: 8 << 10, Jobs: 4})
			if err != nil {
				t.Fatalf("%s: %s: block compress: %v", name, prof.Name, err)
			}
			blocked, _, err := compress.SafeDecompressAny(name, container, compress.Limits{})
			if err != nil {
				t.Fatalf("%s: %s: block decode: %v", name, prof.Name, err)
			}
			if !bytes.Equal(blocked, whole) {
				t.Fatalf("%s: %s: block path restored differently from whole-slice path (diff at %d)",
					name, prof.Name, firstDiff(blocked, whole))
			}
			if !bytes.Equal(blocked, src) {
				t.Fatalf("%s: %s: block path lost data (diff at %d)", name, prof.Name, firstDiff(blocked, src))
			}
		}
	})
}

// verifies fails the test unless a reader over sealed, a container that
// restores, verifies it with the Stats its Decompress reports.
func verifies(t *testing.T, name string, sealed []byte) {
	t.Helper()
	r, err := compress.OpenBlocks(sealed, compress.Limits{})
	if err != nil {
		t.Fatalf("%s: OpenBlocks: %v", name, err)
	}
	_, want, err := r.Decompress()
	if err != nil {
		t.Fatalf("%s: Decompress: %v", name, err)
	}
	if got, err := r.Verify(); err != nil || got != want {
		t.Fatalf("%s: Verify: %v, Stats %+v, want nil and Decompress's %+v", name, err, got, want)
	}
}

// BlockCorruptionSuite is the adversarial half of the block-engine suite:
// it builds a multi-block container and mutates it the way an
// untrustworthy store would — per-block bit flips, index tampering with
// recomputed checksums, block reorder, cross-block truncation — and
// demands every mutant is rejected with compress.ErrCorrupt, without
// panics, and without wrong symbols ever returned as success. Verify must
// reach Decompress's verdict on every mutant that opens.
func BlockCorruptionSuite(t *testing.T, name string) {
	t.Helper()
	const bs = 512
	src := synth.Profile{Length: 5*bs + 301, GC: 0.5}.Generate(505)
	container, _, err := compress.BlockCompressObserved(nil, name, src, compress.BlockOptions{BlockSize: bs})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}

	// The pristine container must restore exactly — otherwise every
	// rejection below is vacuous.
	got, _, err := compress.SafeDecompressAny(name, container, compress.Limits{})
	if err != nil {
		t.Fatalf("%s: pristine container rejected: %v", name, err)
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("%s: pristine container restored %d symbols, want %d", name, len(got), len(src))
	}

	for _, m := range blockMutations(t, name, container) {
		m := m
		t.Run(m.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s/%s: block decode panicked: %v", name, m.name, r)
				}
			}()
			out, _, err := compress.SafeDecompressAny("", m.data, compress.Limits{})
			if r, oerr := compress.OpenBlocks(m.data, compress.Limits{}); oerr == nil {
				if _, verr := r.Verify(); (verr == nil) != (err == nil) || (verr != nil && !errors.Is(verr, compress.ErrCorrupt)) {
					t.Fatalf("%s/%s: Verify's verdict (%v) differs from Decompress's (%v)", name, m.name, verr, err)
				}
			}
			if err == nil {
				// As in the single-frame suite, a resealed mutant may touch
				// only don't-care bits; accepting it is fine iff the restored
				// symbols are still exact.
				if m.mayBeLossless && bytes.Equal(out, src) {
					return
				}
				t.Fatalf("%s/%s: corrupted container accepted", name, m.name)
			} else if !errors.Is(err, compress.ErrCorrupt) {
				t.Fatalf("%s/%s: error %v does not satisfy ErrCorrupt", name, m.name, err)
			}
		})
	}

	// Fault isolation: a bit flip inside one block must not poison seeks
	// into other blocks — the index catches it only where it lies.
	r, err := compress.OpenBlocks(blockFlipFrameByte(t, name, container, 2), compress.Limits{})
	if err != nil {
		t.Fatalf("%s: flipped-block container must still open (damage is block-local): %v", name, err)
	}
	if _, _, err := r.Slice(0, bs); err != nil {
		t.Fatalf("%s: seek into a clean block failed after another block was damaged: %v", name, err)
	}
	if _, _, err := r.Slice(2*bs, bs); !errors.Is(err, compress.ErrCorrupt) {
		t.Fatalf("%s: seek into the damaged block: %v, want ErrCorrupt", name, err)
	}
}

type blockMutation struct {
	name          string
	data          []byte
	mayBeLossless bool
}

// blockIndexRegion locates the index bytes of a container: start offset
// and entry count, derived from the validated header fields.
func blockIndexRegion(t *testing.T, codec string, container []byte) (idxStart, count int) {
	t.Helper()
	n := len(codec)
	idxStart = compress.BlockHeaderSize(codec)
	count = int(binary.BigEndian.Uint64(container[22+n:]))
	return idxStart, count
}

// blockResealIndex recomputes the index checksum after index tampering, so
// the lie survives until the layer that must catch it.
func blockResealIndex(codec string, data []byte) {
	n := len(codec)
	count := int(binary.BigEndian.Uint64(data[22+n:]))
	idxStart := compress.BlockHeaderSize(codec)
	idxEnd := idxStart + count*12
	binary.BigEndian.PutUint32(data[idxEnd:], compress.Checksum(data[idxStart:idxEnd]))
}

// blockFlipFrameByte flips one byte inside block k's frame region.
func blockFlipFrameByte(t *testing.T, codec string, container []byte, k int) []byte {
	t.Helper()
	out := append([]byte(nil), container...)
	idxStart, count := blockIndexRegion(t, codec, out)
	if k >= count {
		t.Fatalf("block %d out of %d", k, count)
	}
	pos := idxStart + count*12 + 4
	for i := 0; i < k; i++ {
		pos += int(binary.BigEndian.Uint64(out[idxStart+i*12:]))
	}
	frameLen := int(binary.BigEndian.Uint64(out[idxStart+k*12:]))
	out[pos+frameLen/2] ^= 0x20
	return out
}

// blockMutations builds the mutant table for one container. Index mutants
// reseal the index checksum so the tampered entries are parsed and the
// damage must be caught downstream; frame mutants leave checksums alone so
// the per-block index sum is what catches them.
func blockMutations(t *testing.T, codec string, container []byte) []blockMutation {
	t.Helper()
	clone := func(b []byte) []byte { return append([]byte(nil), b...) }
	idxStart, count := blockIndexRegion(t, codec, container)
	payloadStart := idxStart + count*12 + 4
	frameLen := func(data []byte, k int) int {
		return int(binary.BigEndian.Uint64(data[idxStart+k*12:]))
	}
	frameOff := func(data []byte, k int) int {
		pos := payloadStart
		for i := 0; i < k; i++ {
			pos += frameLen(data, i)
		}
		return pos
	}

	muts := []blockMutation{
		// Per-block bit flips: damage in different blocks, all caught by the
		// per-block frame checksum in the index.
		{name: "FlipFirstBlock", data: blockFlipFrameByte(t, codec, container, 0)},
		{name: "FlipMiddleBlock", data: blockFlipFrameByte(t, codec, container, count/2)},
		{name: "FlipLastBlock", data: blockFlipFrameByte(t, codec, container, count-1)},
		// Index tampering without resealing: the index checksum trips.
		{name: "FlipIndexByte", data: func() []byte {
			out := clone(container)
			out[idxStart+5] ^= 0x08
			return out
		}()},
		// Index length tampered and resealed: exact framing breaks at Open.
		{name: "TamperIndexLengthResealed", data: func() []byte {
			out := clone(container)
			binary.BigEndian.PutUint64(out[idxStart:], uint64(frameLen(out, 0)+1))
			blockResealIndex(codec, out)
			return out
		}()},
		// Index frame-checksum tampered and resealed: the named block must
		// be rejected at decode.
		{name: "TamperIndexSumResealed", data: func() []byte {
			out := clone(container)
			binary.BigEndian.PutUint32(out[idxStart+8:], binary.BigEndian.Uint32(out[idxStart+8:])^0xBADC0DE)
			blockResealIndex(codec, out)
			return out
		}()},
		// Cross-block truncation: a clean cut at a frame boundary (the last
		// block vanishes) and a ragged cut inside a frame. Both must die at
		// Open on exact framing.
		{name: "TruncateLastBlock", data: clone(container[:frameOff(container, count-1)])},
		{name: "TruncateMidBlock", data: clone(container[:frameOff(container, count-1)+3])},
		// Whole-output checksum tampered (header resealed): every block
		// decodes clean, the container-level verification must still refuse.
		{name: "TamperOutputSumResealed", data: func() []byte {
			out := clone(container)
			n := len(codec)
			binary.BigEndian.PutUint32(out[30+n:], binary.BigEndian.Uint32(out[30+n:])^0xDEADBEEF)
			binary.BigEndian.PutUint32(out[34+n:], compress.Checksum(out[:34+n]))
			return out
		}()},
	}
	if count >= 2 {
		// Block reorder with a consistently rewritten index: swap the first
		// two frames and their index entries, reseal the index checksum.
		// Every block restores its own bytes perfectly — only the container's
		// whole-output checksum can catch the swap. Identical block content
		// would make the swap lossless, hence mayBeLossless.
		out := clone(container)
		l0, l1 := frameLen(out, 0), frameLen(out, 1)
		f0 := clone(out[frameOff(out, 0) : frameOff(out, 0)+l0])
		f1 := clone(out[frameOff(out, 1) : frameOff(out, 1)+l1])
		reordered := append(clone(out[:payloadStart]), f1...)
		reordered = append(reordered, f0...)
		reordered = append(reordered, out[frameOff(out, 1)+l1:]...)
		e0 := clone(reordered[idxStart : idxStart+12])
		copy(reordered[idxStart:], reordered[idxStart+12:idxStart+24])
		copy(reordered[idxStart+12:], e0)
		blockResealIndex(codec, reordered)
		muts = append(muts, blockMutation{name: "ReorderBlocksResealed", data: reordered, mayBeLossless: true})
	}
	return muts
}
