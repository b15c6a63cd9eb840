package compress_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"github.com/srl-nuces/ctxdna/internal/arith"
	"github.com/srl-nuces/ctxdna/internal/bitio"
	"github.com/srl-nuces/ctxdna/internal/compress"
	"github.com/srl-nuces/ctxdna/internal/fib"
	"github.com/srl-nuces/ctxdna/internal/synth"

	_ "github.com/srl-nuces/ctxdna/internal/compress/dnacompress"
	_ "github.com/srl-nuces/ctxdna/internal/compress/dnapack"
	_ "github.com/srl-nuces/ctxdna/internal/compress/xm"
)

// FuzzDecompressAll feeds arbitrary bytes to every registered codec's
// decompressor: none may panic, loop forever, or allocate absurdly; they
// either error or produce some output. Run `go test -fuzz FuzzDecompressAll
// ./internal/compress` for a longer campaign; the seeds below run in plain
// `go test`.
func FuzzDecompressAll(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(bytes.Repeat([]byte{0xA5}, 64))
	f.Add([]byte{16, 0, 0, 0, 0, 0})          // plausible tiny header
	f.Add([]byte{200, 200, 200, 200, 200, 1}) // huge varint length
	f.Add(append([]byte{40}, bytes.Repeat([]byte{0x55}, 100)...))
	// A valid dnax stream prefix with a corrupted tail.
	{
		c, err := compress.New("dnax")
		if err == nil {
			if data, _, err := c.Compress([]byte{0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3}); err == nil {
				data[len(data)-1] ^= 0xFF
				f.Add(data)
			}
		}
	}
	// Repeats whose distance field reaches past the output so far, some
	// by wrapping a signed int: a forward distance of 2^63 or more, or a
	// negative reverse-complement gap.
	for _, d := range []uint64{hostileLiterals, 1 << 63, ^uint64(0) - 4, ^uint64(0) - 1} {
		f.Add(hostileDnax(hostileLiterals, false, d))
		f.Add(hostileDnax(hostileLiterals, true, d))
	}
	for _, dv := range []uint64{41, 1 << 63, ^uint64(0) - 4, ^uint64(0)} {
		f.Add(hostileBiocompress(f, false, dv))
		f.Add(hostileBiocompress(f, true, dv))
	}
	names := compress.Names()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		for _, name := range names {
			c, err := compress.New(name)
			if err != nil {
				t.Fatal(err)
			}
			out, _, err := c.Decompress(data)
			if err == nil && len(out) > 1<<26 {
				t.Fatalf("%s: decompressed %d bytes from %d-byte garbage", name, len(out), len(data))
			}
		}
	})
}

// hostileLiterals are the 40 bases the hostile streams start with.
const hostileLiterals = 40

// hostileDnax is a dnax stream of lits literals and then one 16-base
// repeat whose distance field is d: a forward distance of d+1 or, with rc,
// a reverse-complement gap of d.
func hostileDnax(lits int, rc bool, d uint64) []byte {
	out := binary.AppendUvarint(nil, uint64(lits+16))
	lit := arith.NewSymbolModel(2)
	flag, orient := arith.NewProb(), arith.NewProb()
	lenM, distM := arith.NewUintModel(), arith.NewUintModel()
	enc := arith.NewEncoder(64)
	for i := 0; i < lits; i++ {
		enc.EncodeLiteral(&flag, lit, byte(i*7%4))
	}
	enc.EncodeBit(&flag, 1)
	rcBit := 0
	if rc {
		rcBit = 1
	}
	enc.EncodeBit(&orient, rcBit)
	lenM.Encode(enc, 0)
	distM.Encode(enc, d)
	return append(out, enc.Finish()...)
}

// TestDnaxRepeatDistanceBounds decodes dnax repeats at the edges of the
// output so far and past them: a forward distance must lie in [1,
// len(out)] and an RC gap in [0, len(out)-len], and a field that wraps a
// signed int (distance >= 2^63, a negative gap) must be rejected, not read
// out of range.
func TestDnaxRepeatDistanceBounds(t *testing.T) {
	const lits, l = hostileLiterals, 16
	for _, tc := range []struct {
		lits int
		rc   bool
		d    uint64
		ok   bool
	}{
		{lits, false, 0, true},
		{lits, false, lits - 1, true},
		{lits, false, lits, false},
		{lits, false, 1<<63 - 1, false},
		{lits, false, 1 << 63, false},
		{lits, false, ^uint64(0) - 4, false}, // distance -4
		{lits, false, ^uint64(0) - 1, false}, // distance 0
		{lits, true, 0, true},
		{lits, true, lits - l, true},
		{lits, true, lits - l + 1, false},
		{lits, true, 1 << 63, false},
		{lits, true, ^uint64(0) - 4, false}, // gap -5
		{l - 1, true, 0, false},             // source longer than the output so far
	} {
		c, err := compress.New("dnax")
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := c.Decompress(hostileDnax(tc.lits, tc.rc, tc.d))
		switch {
		case tc.ok && err != nil:
			t.Errorf("lits=%d rc=%v d=%d: %v", tc.lits, tc.rc, tc.d, err)
		case tc.ok && len(out) != tc.lits+l:
			t.Errorf("lits=%d rc=%v d=%d: %d bases, want %d", tc.lits, tc.rc, tc.d, len(out), tc.lits+l)
		case !tc.ok && !errors.Is(err, compress.ErrCorrupt):
			t.Errorf("lits=%d rc=%v d=%d: err %v, want ErrCorrupt", tc.lits, tc.rc, tc.d, err)
		}
	}
}

// hostileBiocompress is a biocompress stream of hostileLiterals literals
// and then one 24-base repeat whose distance field is dv: a forward
// distance of dv or, with rc, a reverse-complement gap of dv-1.
func hostileBiocompress(f *testing.F, rc bool, dv uint64) []byte {
	tokens := bitio.NewWriter(16)
	rcBit := uint(0)
	if rc {
		rcBit = 1
	}
	for _, v := range []uint64{hostileLiterals + 1, 0, 1, dv} { // run+1, orientation, length, distance
		if v == 0 {
			tokens.WriteBit(rcBit)
			continue
		}
		if err := fib.Encode(tokens, v); err != nil {
			f.Fatal(err)
		}
	}
	lit := arith.NewSymbolModel(2)
	enc := arith.NewEncoder(64)
	for i := 0; i < hostileLiterals; i++ {
		lit.Encode(enc, byte(i*7%4))
	}
	tb := tokens.Bytes()
	out := binary.AppendUvarint(nil, hostileLiterals+24)
	out = binary.AppendUvarint(out, uint64(len(tb)))
	return append(append(out, tb...), enc.Finish()...)
}

// FuzzCacheKey exercises the result-cache key path: identical content must
// hit, different content must miss, and a hit must never hand back a stale
// stream — the cached bytes always decompress to exactly the keyed content.
// Seeds are the standard-benchmark corpus names (chmpxx, humdyst, ...), the
// identifiers real sweeps hash file content under.
func FuzzCacheKey(f *testing.F) {
	for _, p := range synth.Benchmark() {
		f.Add([]byte(p.Name))
	}
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 1<<12 {
			return
		}
		src := make([]byte, len(raw))
		for i, b := range raw {
			src[i] = b & 3
		}
		const codec = "dnapack"
		cache := compress.NewCache()

		r1, err := compress.CompressCached(cache, codec, src)
		if err != nil {
			t.Fatalf("cold compress: %v", err)
		}
		r2, err := compress.CompressCached(cache, codec, src)
		if err != nil {
			t.Fatalf("warm compress: %v", err)
		}
		hits, misses := cache.Counters()
		if hits != 1 || misses != 1 {
			t.Fatalf("same content: %d hits %d misses, want 1 and 1", hits, misses)
		}
		if !bytes.Equal(r1.Data, r2.Data) {
			t.Fatal("hit returned different bytes than the cold run")
		}
		// Never a stale round-trip: the cached frame restores src exactly
		// through the hardened decode path.
		restored, _, err := compress.SafeDecompress(codec, r2.Data, compress.Limits{})
		if err != nil {
			t.Fatalf("decompress cached stream: %v", err)
		}
		if !bytes.Equal(restored, src) {
			t.Fatalf("stale round-trip: %d bases keyed, %d restored", len(src), len(restored))
		}

		// Different content (one symbol flipped, or grown) must miss.
		other := append([]byte(nil), src...)
		if len(other) > 0 {
			other[0] ^= 1
		} else {
			other = []byte{1}
		}
		if _, err := compress.CompressCached(cache, codec, other); err != nil {
			t.Fatalf("compress variant: %v", err)
		}
		if _, misses := cache.Counters(); misses != 2 {
			t.Fatalf("different content: %d misses, want 2", misses)
		}
		if compress.ContentKey(codec, src) == compress.ContentKey(codec, other) {
			t.Fatal("distinct content mapped to one key")
		}
		if compress.ContentKey(codec, src) == compress.ContentKey("xm", src) {
			t.Fatal("distinct codecs share a key")
		}
	})
}

// FuzzFrameOpen hammers the armored-frame parser with arbitrary bytes: it
// must never panic, every rejection must be ErrCorrupt, and anything it
// accepts must reseal byte-identically — Open and SealSum are inverses, so
// no two distinct frames can parse to the same view.
func FuzzFrameOpen(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(compress.FrameMagic))
	f.Add(compress.Seal("dnapack", []byte{0, 1, 2, 3}, []byte{9, 9}))
	f.Add(compress.Seal("xm", nil, nil))
	{
		b := compress.Seal("dnax", []byte{1, 2, 3}, bytes.Repeat([]byte{7}, 40))
		b[10] ^= 0x01
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		fr, err := compress.Open(data)
		if err != nil {
			if !errors.Is(err, compress.ErrCorrupt) {
				t.Fatalf("Open rejection %v is not ErrCorrupt", err)
			}
			return
		}
		resealed := compress.SealSum(fr.Codec, fr.Bases, fr.OutputSum, fr.Payload)
		if !bytes.Equal(resealed, data) {
			t.Fatalf("accepted frame does not reseal identically (%d vs %d bytes)", len(resealed), len(data))
		}
	})
}

// FuzzBlockContainerOpen hammers the container reader — the CXB1 parser,
// the CXA1 frame as its one-block case, and the per-block decode path —
// with arbitrary bytes: OpenBlocks must never panic and must reject with
// ErrCorrupt only; anything it accepts must survive a full Decompress and
// random Slice probes without panicking, failing only with ErrCorrupt.
// Seeds are valid containers and frames plus the mutant classes the
// corruption suites promoted: flipped frames, tampered indexes, reordered
// blocks and truncations.
func FuzzBlockContainerOpen(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(compress.BlockMagic))
	f.Add([]byte("CXB1\x01\x07dnapack"))
	seedSrc := make([]byte, 700)
	for i := range seedSrc {
		seedSrc[i] = byte((i * 3) % 4)
	}
	for _, opts := range []compress.BlockOptions{{BlockSize: 100}, {BlockSize: 256}, {BlockSize: 1}} {
		if container, _, err := compress.BlockCompress("dnapack", seedSrc[:300], opts); err == nil {
			f.Add(container)
			// Promoted mutants: truncations at and inside frame boundaries,
			// a frame bit flip, and a header bit flip.
			f.Add(container[:len(container)-5])
			f.Add(container[:compress.BlockHeaderSize("dnapack")+3])
			flipped := append([]byte(nil), container...)
			flipped[len(flipped)-3] ^= 0x10
			f.Add(flipped)
			headerFlip := append([]byte(nil), container...)
			headerFlip[9] ^= 0x01
			f.Add(headerFlip)
		}
	}
	if container, _, err := compress.BlockCompress("xm", nil, compress.BlockOptions{BlockSize: 64}); err == nil {
		f.Add(container)
	}
	if c, err := compress.New("dnapack"); err == nil {
		if payload, _, err := c.Compress(seedSrc[:300]); err == nil {
			frame := compress.Seal("dnapack", seedSrc[:300], payload)
			f.Add(frame)
			f.Add(frame[:len(frame)-5])
			flipped := append([]byte(nil), frame...)
			flipped[compress.Overhead("dnapack")+len(payload)/2] ^= 0x10
			f.Add(flipped)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		lim := compress.Limits{MaxCompressed: 1 << 20, MaxOutput: 1 << 20}
		r, err := compress.OpenBlocks(data, lim)
		// A frame Open accepts within the limits is the one-block container.
		if fr, ferr := compress.Open(data); ferr == nil && fr.Bases <= lim.MaxOutput {
			if err != nil {
				t.Fatalf("OpenBlocks refused a frame Open accepts: %v", err)
			}
			if r.Blocks() != 1 || r.Codec() != fr.Codec || r.Bases() != fr.Bases {
				t.Fatalf("frame opened as %d blocks of %s, %d bases; want 1 block of %s, %d bases",
					r.Blocks(), r.Codec(), r.Bases(), fr.Codec, fr.Bases)
			}
		}
		if err != nil {
			if !errors.Is(err, compress.ErrCorrupt) {
				t.Fatalf("OpenBlocks rejection %v is not ErrCorrupt", err)
			}
			return
		}
		out, _, err := r.Decompress()
		if err != nil {
			if !errors.Is(err, compress.ErrCorrupt) {
				t.Fatalf("Decompress rejection %v is not ErrCorrupt", err)
			}
			return
		}
		if len(out) != r.Bases() {
			t.Fatalf("Decompress returned %d symbols, header says %d", len(out), r.Bases())
		}
		// A container that decodes clean must serve seeks consistently.
		for _, probe := range [][2]int{{0, r.Bases()}, {r.Bases() / 2, r.Bases() - r.Bases()/2}} {
			got, _, err := r.Slice(probe[0], probe[1])
			if err != nil {
				t.Fatalf("Slice(%d, %d) failed after clean Decompress: %v", probe[0], probe[1], err)
			}
			if !bytes.Equal(got, out[probe[0]:probe[0]+probe[1]]) {
				t.Fatalf("Slice(%d, %d) differs from Decompress output", probe[0], probe[1])
			}
		}
	})
}

// FuzzRoundTripAll compresses arbitrary (masked) symbol sequences with every
// codec and demands exact reconstruction.
func FuzzRoundTripAll(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte("ACGTACGTACGTAAAA"))
	f.Add(bytes.Repeat([]byte{0, 1, 2, 3}, 200))
	f.Add(bytes.Repeat([]byte{3}, 1000))
	names := compress.Names()
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 1<<14 {
			return
		}
		src := make([]byte, len(raw))
		for i, b := range raw {
			src[i] = b & 3
		}
		for _, name := range names {
			c, err := compress.New(name)
			if err != nil {
				t.Fatal(err)
			}
			data, _, err := c.Compress(src)
			if err != nil {
				t.Fatalf("%s: compress: %v", name, err)
			}
			got, _, err := c.Decompress(data)
			if err != nil {
				t.Fatalf("%s: decompress: %v", name, err)
			}
			if !bytes.Equal(got, src) {
				t.Fatalf("%s: round trip mismatch for %d bases", name, len(src))
			}
		}
	})
}
