package compress_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	"github.com/srl-nuces/ctxdna/internal/compress"
	"github.com/srl-nuces/ctxdna/internal/obs"
	"github.com/srl-nuces/ctxdna/internal/synth"
)

// blockSrc builds a deterministic symbol sequence of length n.
func blockSrc(n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = byte((i*7 + i/13) % 4)
	}
	return s
}

func TestBlockRoundTripSizes(t *testing.T) {
	const bs = 64
	for _, n := range []int{0, 1, bs - 1, bs, bs + 1, 3*bs + 17, 10 * bs} {
		src := blockSrc(n)
		container, st, err := compress.BlockCompressObserved(nil, "dnapack", src, compress.BlockOptions{BlockSize: bs, Jobs: 3})
		if err != nil {
			t.Fatalf("n=%d: BlockCompressObserved: %v", n, err)
		}
		if n > 0 && st.WorkNS <= 0 {
			t.Fatalf("n=%d: non-positive modeled work %d", n, st.WorkNS)
		}
		r, err := compress.OpenBlocks(container, compress.Limits{})
		if err != nil {
			t.Fatalf("n=%d: OpenBlocks: %v", n, err)
		}
		wantBlocks := (n + bs - 1) / bs
		if r.Codec() != "dnapack" || r.Bases() != n || r.BlockSize() != bs || r.Blocks() != wantBlocks {
			t.Fatalf("n=%d: header (%s, %d bases, bs %d, %d blocks), want (dnapack, %d, %d, %d)",
				n, r.Codec(), r.Bases(), r.BlockSize(), r.Blocks(), n, bs, wantBlocks)
		}
		got, _, err := r.Decompress()
		if err != nil {
			t.Fatalf("n=%d: Decompress: %v", n, err)
		}
		if !bytes.Equal(got, src) {
			t.Fatalf("n=%d: round trip mismatch (%d symbols out)", n, len(got))
		}
	}
}

// TestPackHugeBlockSize: a block size past the input, up to MaxInt, seals
// one block that restores. Rounding the count up as (n+bs-1)/bs overflows
// there: at MaxInt it sealed a container of no blocks, which no reader
// opens, and at MaxInt-50 a negative count, which panicked.
func TestPackHugeBlockSize(t *testing.T) {
	src := blockSrc(100)
	for _, bs := range []int{math.MaxInt, math.MaxInt - 50} {
		container, _, err := compress.Pack(nil, "twobit", src, bs)
		if err != nil {
			t.Fatalf("block size %d: Pack: %v", bs, err)
		}
		r, err := compress.OpenBlocks(container, compress.Limits{})
		if err != nil {
			t.Fatalf("block size %d: OpenBlocks: %v", bs, err)
		}
		if r.Blocks() != 1 || r.BlockSize() != bs {
			t.Fatalf("block size %d: %d blocks of %d, want 1 of %d", bs, r.Blocks(), r.BlockSize(), bs)
		}
		if got, _, err := r.Decompress(); err != nil || !bytes.Equal(got, src) {
			t.Fatalf("block size %d: restores %d bases (%v), want the %d packed", bs, len(got), err, len(src))
		}
	}
}

// TestEveryWriteBooksOneCompress: Pack in either format, and
// BlockCompressObserved, book one compress call into the registry they
// are handed: the bases in, and out the codec payload bytes, summed over
// blocks.
func TestEveryWriteBooksOneCompress(t *testing.T) {
	src := blockSrc(1000)
	for _, tc := range []struct {
		name  string
		write func(reg *obs.Registry) ([]byte, compress.Stats, error)
	}{
		{"Pack frame", func(reg *obs.Registry) ([]byte, compress.Stats, error) {
			return compress.Pack(reg, "dnapack", src, 0)
		}},
		{"Pack blocks", func(reg *obs.Registry) ([]byte, compress.Stats, error) {
			return compress.Pack(reg, "dnapack", src, 300)
		}},
		{"BlockCompressObserved", func(reg *obs.Registry) ([]byte, compress.Stats, error) {
			return compress.BlockCompressObserved(reg, "dnapack", src, compress.BlockOptions{BlockSize: 300, Jobs: 2})
		}},
	} {
		reg := obs.NewRegistry()
		sealed, _, err := tc.write(reg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		r, err := compress.OpenBlocks(sealed, compress.Limits{})
		if err != nil {
			t.Fatalf("%s: OpenBlocks: %v", tc.name, err)
		}
		payload := 0
		for k := range r.Blocks() {
			payload += len(r.Frame(k)) - compress.Overhead("dnapack")
		}
		labels := []string{"codec", "dnapack", "op", "compress"}
		for _, c := range []struct {
			series string
			want   int
		}{{"dna_codec_calls_total", 1}, {"dna_codec_in_bytes_total", len(src)}, {"dna_codec_out_bytes_total", payload}} {
			if got := reg.Counter(c.series, "", labels...).Value(); got != uint64(c.want) {
				t.Errorf("%s: %s = %d, want %d", tc.name, c.series, got, c.want)
			}
		}
	}
}

func TestBlockJobsDeterminism(t *testing.T) {
	src := synth.Profile{Length: 20000, GC: 0.45}.Generate(42)
	var first []byte
	for _, jobs := range []int{1, 2, 8} {
		container, _, err := compress.BlockCompressObserved(nil, "xm", src, compress.BlockOptions{BlockSize: 1024, Jobs: jobs})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if first == nil {
			first = container
		} else if !bytes.Equal(first, container) {
			t.Fatalf("jobs=%d produced a different container than jobs=1", jobs)
		}
	}
}

func TestBlockSliceEquivalence(t *testing.T) {
	const bs = 128
	src := synth.Profile{Length: 5*bs + 31, GC: 0.5}.Generate(9)
	container, _, err := compress.BlockCompressObserved(nil, "dnapack", src, compress.BlockOptions{BlockSize: bs})
	if err != nil {
		t.Fatal(err)
	}
	r, err := compress.OpenBlocks(container, compress.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := r.Decompress()
	if err != nil {
		t.Fatal(err)
	}
	for _, probe := range [][2]int{{0, 0}, {0, 1}, {bs - 1, 2}, {bs, bs}, {2*bs + 3, 2*bs + 5}, {len(src) - 1, 1}, {0, len(src)}} {
		off, n := probe[0], probe[1]
		got, _, err := r.Slice(off, n)
		if err != nil {
			t.Fatalf("Slice(%d, %d): %v", off, n, err)
		}
		if !bytes.Equal(got, full[off:off+n]) {
			t.Fatalf("Slice(%d, %d) differs from full decode", off, n)
		}
	}
	// Out-of-range slices are caller errors, not corruption.
	if _, _, err := r.Slice(-1, 2); err == nil || errors.Is(err, compress.ErrCorrupt) {
		t.Fatalf("Slice(-1, 2): got %v, want a plain range error", err)
	}
	if _, _, err := r.Slice(len(src), 1); err == nil {
		t.Fatal("Slice past the end accepted")
	}
}

// TestSafeDecompressAnyDispatch: a CXB1 container and a CXA1 frame go
// through the same reader, and the limits and the codec pin fail at the
// same stage on both — MaxOutput at open, the pin against the opened
// reader's codec, MaxCompressed when a block is decoded.
func TestSafeDecompressAnyDispatch(t *testing.T) {
	src := blockSrc(600)
	container, _, err := compress.BlockCompressObserved(nil, "dnapack", src, compress.BlockOptions{BlockSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	c, err := compress.New("dnapack")
	if err != nil {
		t.Fatal(err)
	}
	payload, _, err := c.Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	frame := compress.Seal("dnapack", src, payload)
	cases := []struct {
		name   string
		data   []byte
		pin    string
		lim    compress.Limits
		failAt string // "", "open", "pin" or "decode"
	}{
		{"Container", container, "dnapack", compress.Limits{}, ""},
		{"ContainerPin", container, "xm", compress.Limits{}, "pin"},
		{"ContainerMaxOutput", container, "", compress.Limits{MaxOutput: len(src) - 1}, "open"},
		{"ContainerMaxCompressed", container, "", compress.Limits{MaxCompressed: 1}, "decode"},
		{"Frame", frame, "dnapack", compress.Limits{}, ""},
		{"FramePin", frame, "xm", compress.Limits{}, "pin"},
		{"FrameMaxOutput", frame, "", compress.Limits{MaxOutput: len(src) - 1}, "open"},
		{"FrameMaxCompressed", frame, "", compress.Limits{MaxCompressed: len(payload) - 1}, "decode"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, _, err := compress.SafeDecompressAny(tc.pin, tc.data, tc.lim)
			if tc.failAt == "" {
				if err != nil || !bytes.Equal(got, src) {
					t.Fatalf("SafeDecompressAny: %v (got %d symbols)", err, len(got))
				}
			} else if !errors.Is(err, compress.ErrCorrupt) {
				t.Fatalf("SafeDecompressAny: %v, want ErrCorrupt", err)
			}

			r, err := compress.OpenBlocks(tc.data, tc.lim)
			if tc.failAt == "open" {
				if !errors.Is(err, compress.ErrCorrupt) {
					t.Fatalf("OpenBlocks: %v, want ErrCorrupt at open", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("OpenBlocks: %v", err)
			}
			if tc.failAt == "pin" {
				if r.Codec() == tc.pin {
					t.Fatalf("reader records the pinned codec %q", tc.pin)
				}
				return
			}
			got, _, err = r.Decompress()
			if tc.failAt == "decode" {
				if !errors.Is(err, compress.ErrCorrupt) {
					t.Fatalf("Decompress: %v, want ErrCorrupt at decode", err)
				}
				return
			}
			if err != nil || !bytes.Equal(got, src) {
				t.Fatalf("Decompress: %v (got %d symbols)", err, len(got))
			}
		})
	}
}

// --- hostile headers: the open path must reject a lying index before it
// allocates anything sized by the lie ---

// patchBlockHeader rewrites the (bases, blockSize, count) header fields of
// a dnapack container and reseals the header checksum, producing a
// well-formed header whose claims the rest of the bytes cannot back.
func patchBlockHeader(t *testing.T, container []byte, bases, blockSize, count uint64) []byte {
	t.Helper()
	out := append([]byte(nil), container...)
	n := int(out[5])
	binary.BigEndian.PutUint64(out[6+n:], bases)
	binary.BigEndian.PutUint64(out[14+n:], blockSize)
	binary.BigEndian.PutUint64(out[22+n:], count)
	binary.BigEndian.PutUint32(out[34+n:], compress.Checksum(out[:34+n]))
	return out
}

func TestOpenBlocksHostileHeaders(t *testing.T) {
	src := blockSrc(500)
	container, _, err := compress.BlockCompressObserved(nil, "dnapack", src, compress.BlockOptions{BlockSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	noLimits := compress.Limits{MaxCompressed: -1, MaxOutput: -1}
	flip := func(i int) []byte {
		out := append([]byte(nil), container...)
		out[i] ^= 0x40
		return out
	}
	cases := []struct {
		name string
		data []byte
		lim  compress.Limits
		want string
	}{
		{"Empty", nil, noLimits, "shorter than the minimum header"},
		{"BadMagic", flip(0), noLimits, "bad magic"},
		{"BadVersion", flip(4), noLimits, "unsupported version"},
		{"FlipHeaderByte", flip(10), noLimits, "header checksum mismatch"},
		// A header claiming 2^40 symbols in 2^40 one-base blocks: with
		// limits disabled the index-sizing check is the only guard, and the
		// test completing at all proves no 12 TB index was allocated.
		{"HugeCountTruncatedIndex", patchBlockHeader(t, container, 1<<40, 1, 1<<40), noLimits, "truncated block index"},
		// The same lie under default limits dies even earlier, at MaxOutput.
		{"HugeCountDefaultLimits", patchBlockHeader(t, container, 1<<40, 1, 1<<40), compress.Limits{}, "limit"},
		{"BasesOverflowInt", patchBlockHeader(t, container, math.MaxUint64, 100, 5), noLimits, "overflows int"},
		{"ZeroBlockSize", patchBlockHeader(t, container, 500, 0, 5), noLimits, "block size"},
		{"CountMismatch", patchBlockHeader(t, container, 500, 100, 4), noLimits, "require"},
		{"TruncatedIndex", container[:40], noLimits, "truncated"},
		{"TruncatedMidFrame", container[:len(container)-7], noLimits, ""},
		{"TrailingGarbage", append(append([]byte(nil), container...), 0xA5), noLimits, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, err := compress.OpenBlocks(tc.data, tc.lim)
			if err == nil {
				t.Fatalf("hostile container accepted (%d blocks)", r.Blocks())
			}
			if !errors.Is(err, compress.ErrCorrupt) {
				t.Fatalf("rejection %v does not satisfy ErrCorrupt", err)
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("rejection %q does not mention %q", err, tc.want)
			}
		})
	}

	// Index checksum: flipping any index byte must be caught by the index
	// CRC, not by a downstream frame parse.
	idxStart := compress.BlockHeaderSize("dnapack")
	bad := append([]byte(nil), container...)
	bad[idxStart+3] ^= 0x01
	if _, err := compress.OpenBlocks(bad, noLimits); err == nil || !strings.Contains(err.Error(), "index checksum") {
		t.Fatalf("index tamper: %v, want index checksum mismatch", err)
	}
}

// allocated returns the fewest bytes the heap allocated over two runs of
// fn: the runtime's own goroutines allocate now and then.
func allocated(fn func()) uint64 {
	var m runtime.MemStats
	grew := uint64(math.MaxUint64)
	for range 2 {
		runtime.ReadMemStats(&m)
		before := m.TotalAlloc
		fn()
		runtime.ReadMemStats(&m)
		grew = min(grew, m.TotalAlloc-before)
	}
	return grew
}

// claimingContainer is a CXB1 container of 72 bytes (for dnax) whose
// checksums are all valid: it claims bases dnax bases in two blocks of
// bases/2, and each block's frame is one byte.
func claimingContainer(bases uint64) []byte {
	const codec = "dnax"
	c := append([]byte(compress.BlockMagic), compress.BlockVersion, byte(len(codec)))
	c = append(c, codec...)
	c = binary.BigEndian.AppendUint64(c, bases)
	c = binary.BigEndian.AppendUint64(c, bases/2) // block size
	c = binary.BigEndian.AppendUint64(c, 2)       // blocks
	c = binary.BigEndian.AppendUint32(c, 0)       // output CRC
	c = binary.BigEndian.AppendUint32(c, compress.Checksum(c))
	index := len(c)
	frames := []byte{0x01, 0x02}
	for k := range frames {
		c = binary.BigEndian.AppendUint64(c, 1)
		c = binary.BigEndian.AppendUint32(c, compress.Checksum(frames[k:k+1]))
	}
	c = binary.BigEndian.AppendUint32(c, compress.Checksum(c[index:]))
	return append(c, frames...)
}

// TestClaimedBasesAllocateNothingBeforeBlockZero: the 72-byte container
// claiming 2^30 bases opens under the default Limits, and every decode of
// it fails at block 0, as corrupt. None may allocate for the claim before
// block 0 has decoded: each stays under 64 KiB (Decompress and
// SafeDecompressAny allocated the whole 1 GiB output first).
func TestClaimedBasesAllocateNothingBeforeBlockZero(t *testing.T) {
	data := claimingContainer(1 << 30)
	r, err := compress.OpenBlocks(data, compress.Limits{})
	if err != nil || len(data) != 72 || r.Bases() != 1<<30 || r.Blocks() != 2 {
		t.Fatalf("the %d-byte container opened as %v", len(data), err)
	}
	for _, tc := range []struct {
		name   string
		decode func() error
	}{
		{"Decompress", func() error { _, _, err := r.Decompress(); return err }},
		{"SafeDecompressAny", func() error { _, _, err := compress.SafeDecompressAny("dnax", data, compress.Limits{}); return err }},
		{"Verify", func() error { _, err := r.Verify(); return err }},
		{"Slice", func() error { _, _, err := r.Slice(0, r.Bases()); return err }},
	} {
		grew := allocated(func() { err = tc.decode() })
		if !errors.Is(err, compress.ErrCorrupt) {
			t.Errorf("%s: %v, want ErrCorrupt", tc.name, err)
		}
		if grew >= 64<<10 {
			t.Errorf("%s of a container claiming 2^30 bases in two 1-byte frames allocated %d bytes", tc.name, grew)
		}
	}
}

// TestDecompressOutputGrowsWithBlocks: a multi-block Decompress grows its
// output with the blocks that have decoded and returns exactly the
// container's bases. Block 0 decodes into its own buffer, and the output
// grows geometrically from there, so a decode allocates at most about
// twice its output, per-block codec models included.
func TestDecompressOutputGrowsWithBlocks(t *testing.T) {
	src := synth.Profile{Length: 3<<20 + 777, GC: 0.42, RepeatProb: 0.002, RepeatMin: 16, RepeatMax: 128}.Generate(9)
	for _, blockSize := range []int{1 << 16, 1 << 20, 3 << 19} {
		container, _, err := compress.BlockCompressObserved(nil, "dnax", src, compress.BlockOptions{BlockSize: blockSize})
		if err != nil {
			t.Fatal(err)
		}
		r, err := compress.OpenBlocks(container, compress.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		var out []byte
		grew := allocated(func() { out, _, err = r.Decompress() })
		if err != nil || !bytes.Equal(out, src) {
			t.Fatalf("block size %d: %v, or the output differs from the source", blockSize, err)
		}
		// The race build allocates twice the block that slices.Grow
		// appends in block 0's codec, so the bound holds only without it.
		if limit := uint64(5 * len(src) / 2); grew > limit && !raceEnabled {
			t.Errorf("block size %d: Decompress of %d bases allocated %d bytes, over %d", blockSize, len(src), grew, limit)
		}
	}
}
