package compress_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"testing"

	"github.com/srl-nuces/ctxdna/internal/arith"
	"github.com/srl-nuces/ctxdna/internal/bitio"
	"github.com/srl-nuces/ctxdna/internal/compress"
	"github.com/srl-nuces/ctxdna/internal/compress/token"
	"github.com/srl-nuces/ctxdna/internal/fib"
	"github.com/srl-nuces/ctxdna/internal/match"
	"github.com/srl-nuces/ctxdna/internal/synth"

	_ "github.com/srl-nuces/ctxdna/internal/compress/dnacompress"
	_ "github.com/srl-nuces/ctxdna/internal/compress/dnapack"
	_ "github.com/srl-nuces/ctxdna/internal/compress/xm"
)

// FuzzDecompressAll feeds arbitrary bytes to every registered codec's
// decompressor: none may panic, loop forever, or allocate absurdly; they
// either error or produce some output. Each input is decoded a second time
// by DecompressTo into a buffer of garbage, which must give the same
// verdict and bases: no stream may surface a caller's old bytes. Run `go
// test -fuzz FuzzDecompressAll ./internal/compress` for a longer campaign;
// the seeds below run in plain `go test`.
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
		f.Add(hostileBiocompress(f, false, 1, dv, 24))
		f.Add(hostileBiocompress(f, true, 1, dv, 24))
	}
	for _, tc := range repeatFieldCases(f) {
		f.Add(tc.stream)
	}
	for _, tc := range truncatedStreams(f) {
		f.Add(tc.stream)
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
			// 0xEE is no symbol, so a garbage byte cannot pass for a base.
			garbage := bytes.Repeat([]byte{0xEE}, min(len(out), 1<<20)+64)
			into, _, intoErr := c.DecompressTo(garbage, data)
			if (intoErr == nil) != (err == nil) || !bytes.Equal(into, out) {
				t.Fatalf("%s: DecompressTo into garbage gave %d bases, error %v; Decompress gave %d, error %v", name, len(into), intoErr, len(out), err)
			}
		}
	})
}

var heapSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func heapAllocs() uint64 {
	metrics.Read(heapSample)
	return heapSample[0].Value.Uint64()
}

// hostileLiterals are the 40 bases the hostile streams start with.
const hostileLiterals = 40

// hostileBases returns the n literal bases a hostile stream starts with.
func hostileBases(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i * 7 % 4)
	}
	return b
}

// hostileStream is a token stream of lits literal bases and then one
// repeat record, written by rec, whose header claims lits+extra bases.
func hostileStream(lits, extra int, rec func(w *token.Writer)) []byte {
	w := token.NewWriter(lits+extra, 2)
	w.Literals(hostileBases(lits))
	rec(w)
	return w.Finish()
}

// hostileDnax is a dnax stream of lits literals and then one 16-base
// repeat whose distance field is d: a forward distance of d+1 or, with rc,
// a reverse-complement gap of d.
func hostileDnax(lits int, rc bool, d uint64) []byte {
	return hostileStream(lits, 16, func(w *token.Writer) { w.Exact(rc, 0, d, nil) })
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
// and then one repeat whose Fibonacci fields are lv and dv: a length of
// lv+23 and a forward distance of dv or, with rc, a reverse-complement gap
// of dv-1. Its header claims extra bases past the literals.
func hostileBiocompress(tb testing.TB, rc bool, lv, dv uint64, extra int) []byte {
	tokens := bitio.NewWriter(16)
	rcBit := uint(0)
	if rc {
		rcBit = 1
	}
	for _, v := range []uint64{hostileLiterals + 1, 0, lv, dv} { // run+1, orientation, length, distance
		if v == 0 {
			tokens.WriteBit(rcBit)
			continue
		}
		if err := fib.Encode(tokens, v); err != nil {
			tb.Fatal(err)
		}
	}
	enc := arith.NewEncoder(nil, 64)
	enc.EncodeLiterals(nil, arith.NewSymbolModel(2), hostileBases(hostileLiterals))
	tb2 := tokens.Bytes()
	out := binary.AppendUvarint(nil, uint64(hostileLiterals+extra))
	out = binary.AppendUvarint(out, uint64(len(tb2)))
	return append(append(out, tb2...), enc.Finish()...)
}

// repeatFieldCase is one hostile stream for a codec, and whether it
// decodes.
type repeatFieldCase struct {
	name, codec string
	stream      []byte
	ok          bool
}

// repeatFieldCases are repeat records whose fields sit at the edges of the
// output so far or wrap a signed int:
//   - in the codecs whose records carry only a forward distance, distance
//     fields of len(out)-1, len(out), 2^63, 2^63+1 and 2^64-2 after 0, 1 and
//     40 literals: only the first, after 40, has its source in the output
//     (after 1 literal the source overlaps the repeat, which neither an edit
//     script nor dnapack copies);
//   - in every codec, a length field of 2^64-2 (a Fibonacci length of
//     2^64-1 in biocompress) under a header claiming the codec's minimum - 2
//     bases past the literals, which an int conversion takes for a repeat
//     of that length;
//   - in the edit and substitution records, a second op offset delta of
//     2^64-3, offset -2 as an int.
func repeatFieldCases(tb testing.TB) []repeatFieldCase {
	const lits, max = hostileLiterals, ^uint64(0)
	edit := func(w *token.Writer, d, length uint64, ops ...match.EditOp) {
		w.Edit(d, length, uint64(len(ops)), ops, nil)
	}
	subs := func(w *token.Writer, d, length uint64, ops ...match.EditOp) {
		w.Subs(d, length, uint64(len(ops)), ops, nil)
	}
	wrapped := []match.EditOp{{Kind: match.OpSub, Off: 1, Base: 2}, {Kind: match.OpSub, Off: -2, Base: 2}}
	var cases []repeatFieldCase
	for _, g := range []struct {
		codec string
		min   int
		rec   func(w *token.Writer, d, length uint64, ops ...match.EditOp)
	}{
		{"gencompress", 16, edit},
		{"dnacompress", 20, edit},
		{"dnapack", 16, subs},
	} {
		for _, n := range []int{0, 1, lits} {
			for _, d := range []uint64{uint64(n) - 1, uint64(n), 1 << 63, 1<<63 + 1, max - 1} {
				if d == max {
					continue // len(out)-1 of no literals
				}
				cases = append(cases, repeatFieldCase{
					fmt.Sprintf("distance %d after %d", d, n), g.codec,
					hostileStream(n, g.min, func(w *token.Writer) { g.rec(w, d, 0) }),
					n == lits && d == lits-1,
				})
			}
		}
		cases = append(cases,
			repeatFieldCase{"length 2^64-2", g.codec, hostileStream(lits, g.min-2, func(w *token.Writer) { g.rec(w, lits-1, max-1) }), false},
			repeatFieldCase{"op offset -2", g.codec, hostileStream(lits, g.min, func(w *token.Writer) { g.rec(w, lits-1, 0, wrapped...) }), false},
		)
	}
	return append(cases,
		repeatFieldCase{"length 2^64-2", "dnax", hostileStream(lits, 16-2, func(w *token.Writer) { w.Exact(false, max-1, lits-1, nil) }), false},
		repeatFieldCase{"Fibonacci length 2^64-1", "biocompress", hostileBiocompress(tb, false, max, lits, 24-2), false},
	)
}

// TestRepeatFieldBounds decodes repeatFieldCases: a record whose source
// lies in the output so far decodes to a copy of it, and every other is
// ErrCorrupt, not a panic, a short repeat or a dropped edit.
func TestRepeatFieldBounds(t *testing.T) {
	for _, tc := range repeatFieldCases(t) {
		c, err := compress.New(tc.codec)
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := c.Decompress(tc.stream)
		switch {
		case tc.ok && err != nil:
			t.Errorf("%s %s: %v", tc.codec, tc.name, err)
		case tc.ok && !bytes.Equal(out, append(hostileBases(hostileLiterals), out[:len(out)-hostileLiterals]...)):
			t.Errorf("%s %s: decoded %v", tc.codec, tc.name, out)
		case !tc.ok && !errors.Is(err, compress.ErrCorrupt):
			t.Errorf("%s %s: %d bases, err %v, want ErrCorrupt", tc.codec, tc.name, len(out), err)
		}
	}
}

// truncatedStream is a stream that runs out long before its claims.
type truncatedStream struct {
	name, codec string
	stream      []byte
}

// truncatedStreams claim far more than their bytes code: the range
// decoder would read zeros past their ends and yield symbols, or ops, for
// as long as the claims say.
func truncatedStreams(tb testing.TB) []truncatedStream {
	const claim = 1 << 31
	oneSub := []match.EditOp{{Kind: match.OpSub, Off: 0, Base: 2}}
	// A biocompress token section of one literal run of the whole claim,
	// with no literal section behind it.
	tokens := bitio.NewWriter(16)
	if err := fib.Encode(tokens, claim+1); err != nil {
		tb.Fatal(err)
	}
	bio := binary.AppendUvarint(nil, claim)
	bio = binary.AppendUvarint(bio, uint64(len(tokens.Bytes())))
	bio = append(bio, tokens.Bytes()...)
	var cases []truncatedStream
	for _, name := range []string{"dnax", "xm"} {
		cases = append(cases, truncatedStream{"header only", name, binary.AppendUvarint(nil, claim)})
	}
	for _, name := range []string{"gencompress", "dnacompress"} {
		// The ops record of the 2^22-op claim, and one within the op bound
		// whose ops run past the stream's end.
		cases = append(cases,
			truncatedStream{"2^22 ops", name, hostileStream(hostileLiterals, 16+1<<22, func(w *token.Writer) { w.Edit(39, 1<<22, 1<<22, oneSub, nil) })},
			truncatedStream{"24 ops", name, hostileStream(hostileLiterals, 16+1<<22, func(w *token.Writer) { w.Edit(39, 1<<22, 24, oneSub, nil) })})
	}
	// A real stream of 3000 bases, its last byte cut: it runs out within
	// the first stride, where only the check after the last base sees it.
	src := synth.Profile{Length: 3000, GC: 0.45}.Generate(3)
	for _, name := range []string{"ctw", "xm"} {
		c, err := compress.New(name)
		if err != nil {
			tb.Fatal(err)
		}
		stream, _, err := c.Compress(src)
		if err != nil {
			tb.Fatal(err)
		}
		cases = append(cases, truncatedStream{"short, last byte cut", name, stream[:len(stream)-1]})
	}
	return append(cases,
		truncatedStream{"header only", "ctw", binary.AppendUvarint([]byte{16}, claim)},
		truncatedStream{"literal run", "biocompress", bio})
}

// TestTruncatedStreamsStopEarly: a stream that runs out is ErrCorrupt, and
// its decoder stops within a stride of its end, not at its claims. Before
// the overrun check the dnax header alone decoded 2^31 literals, and the
// 2^22-op gencompress record allocated about 505 MB before it was
// rejected; before the check after the last base, a CTW or XM stream cut
// short within its first stride decoded to fabricated bases.
func TestTruncatedStreamsStopEarly(t *testing.T) {
	for _, tc := range truncatedStreams(t) {
		c, err := compress.New(tc.codec)
		if err != nil {
			t.Fatal(err)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		out, _, err := c.Decompress(tc.stream)
		runtime.ReadMemStats(&m1)
		if !errors.Is(err, compress.ErrCorrupt) {
			t.Errorf("%s %s (%d bytes): %d bases, err %v, want ErrCorrupt", tc.codec, tc.name, len(tc.stream), len(out), err)
		}
		if alloc := m1.TotalAlloc - m0.TotalAlloc; alloc > 16<<20 {
			t.Errorf("%s %s (%d bytes): allocated %d bytes decoding it", tc.codec, tc.name, len(tc.stream), alloc)
		}
	}
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

// declare rewrites the size a container's header declares to claim: a
// CXB1 header's symbol count, with the block count it implies, or a CXA1
// header's payload length, resealing the header checksum. Anything else,
// or a header cut short, is returned as is.
func declare(data []byte, claim uint64) []byte {
	if len(data) < 6 || claim == 0 {
		return data
	}
	out := append([]byte(nil), data...)
	n := int(out[5])
	switch string(out[:4]) {
	case compress.BlockMagic:
		if len(out) < compress.BlockHeaderSize(string(out[6:6+min(n, len(out)-6)])) || n == 0 {
			return data
		}
		blockSize := binary.BigEndian.Uint64(out[14+n:])
		if blockSize == 0 {
			return data
		}
		binary.BigEndian.PutUint64(out[6+n:], claim)
		binary.BigEndian.PutUint64(out[22+n:], claim/blockSize+min(claim%blockSize, 1))
		binary.BigEndian.PutUint32(out[34+n:], compress.Checksum(out[:34+n]))
	case compress.FrameMagic:
		if len(out) < compress.Overhead(string(out[6:6+min(n, len(out)-6)])) || n == 0 {
			return data
		}
		binary.BigEndian.PutUint64(out[14+n:], claim)
		binary.BigEndian.PutUint32(out[30+n:], compress.Checksum(out[:30+n]))
	}
	return out
}

// FuzzBlockIndexOpen holds the header-and-index open, the first thing a
// range read of a stored container parses, to its contract: fed any prefix
// of a container whose header may declare any size, BlockIndexLen and
// OpenBlockIndex never panic, fail only with ErrCorrupt, allocate in
// proportion to the bytes present, not to a declared count, and a reader
// they open reads back, within the prefix, what OpenBlocks reads from the
// whole container.
func FuzzBlockIndexOpen(f *testing.F) {
	src := hostileBases(3000)
	for _, opts := range []compress.BlockOptions{{BlockSize: 100}, {BlockSize: 700}, {BlockSize: 1}} {
		if container, _, err := compress.BlockCompress("dnapack", src, opts); err == nil {
			for _, cut := range []uint16{0, 5, 45, 300, 512, uint16(min(len(container), 65535))} {
				f.Add(container, cut, uint64(0))
			}
			f.Add(container, uint16(512), uint64(1<<40))
			f.Add(container, uint16(512), uint64(1)<<63)
		}
	}
	if c, err := compress.New("dnapack"); err == nil {
		if payload, _, err := c.Compress(src); err == nil {
			frame := compress.Seal("dnapack", src, payload)
			f.Add(frame, uint16(512), uint64(0))
			f.Add(frame, uint16(len(frame)), uint64(0))
			f.Add(frame, uint16(512), ^uint64(0))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, cut uint16, claim uint64) {
		data = declare(data, claim)
		head := data[:min(int(cut), len(data))]
		lim := compress.Limits{MaxCompressed: 1 << 20, MaxOutput: 1 << 30}
		var (
			need int
			rd   *compress.BlockReader
			err  error
		)
		grew := uint64(math.MaxUint64)
		for range 2 { // the smaller of two: the fuzz worker allocates too
			before := heapAllocs()
			if need, err = compress.BlockIndexLen(head, lim); err == nil {
				rd, err = compress.OpenBlockIndex(nil, head, lim)
			}
			grew = min(grew, heapAllocs()-before)
		}
		if err != nil {
			if !errors.Is(err, compress.ErrCorrupt) {
				t.Fatalf("header-and-index open of %d bytes: %v is not ErrCorrupt", len(head), err)
			}
			return
		}
		if grew > 64<<10+4*uint64(len(head)) {
			t.Fatalf("opening %d bytes of a %d-block index allocated %d bytes", len(head), rd.Blocks(), grew)
		}
		if need > len(head) || rd.Size() < need {
			t.Fatalf("opened %d bytes that hold %d of header and index, of a %d-byte container", len(head), need, rd.Size())
		}
		whole, err := compress.OpenBlocks(data, lim)
		if err != nil || whole.Size() != rd.Size() {
			return // the rest of the container is not what the index says
		}
		// Windows whose frames the prefix holds decode as they do whole.
		for _, probe := range [][2]int{{0, rd.Bases()}, {rd.Bases() / 2, 1}, {max(rd.Bases()-3, 0), min(rd.Bases(), 3)}} {
			if lo, hi := rd.FrameSpan(probe[0], probe[1]); hi > len(head) || lo > hi {
				continue
			}
			got, _, gerr := rd.Slice(probe[0], probe[1])
			want, _, werr := whole.Slice(probe[0], probe[1])
			if (gerr == nil) != (werr == nil) || !bytes.Equal(got, want) {
				t.Fatalf("Slice(%d, %d) of the open prefix: %v; of the whole container: %v", probe[0], probe[1], gerr, werr)
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
