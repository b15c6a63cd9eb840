package compress

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"runtime"

	"github.com/srl-nuces/ctxdna/internal/obs"
	"github.com/srl-nuces/ctxdna/internal/par"
)

// The multi-block container lifts the codec layer past its whole-slice
// ceiling: input is split into fixed-size blocks, each block is compressed
// independently (so a bounded worker pool can run blocks in parallel) and
// sealed into its own armored frame (frame.go), and the frames are
// concatenated behind a header plus a per-block offset+checksum index.
// Independence buys three properties at once, bgzf-style:
//
//   - parallel seal: blocks compress concurrently, yet the container bytes
//     are identical for any worker count because assembly is index-ordered;
//   - seekable open: a Slice of symbol space decodes only the blocks
//     overlapping the requested range — random access without a full decode;
//   - bounded memory: seal holds at most jobs in-flight block working sets,
//     open holds one block's working set beyond the caller's output.
//
// Layout (big-endian, n = len(codec name), c = block count):
//
//	offset     size  field
//	0          4     magic "CXB1"
//	4          1     format version (currently 1)
//	5          1     codec name length n (1..64)
//	6          n     codec name (registry identifier)
//	6+n        8     total symbol count (bases)
//	14+n       8     block size in bases
//	22+n       8     block count c (= ceil(bases / block size))
//	30+n       4     CRC32-C of the full restored symbol output
//	34+n       4     CRC32-C of the header bytes [0, 34+n)
//	38+n       12c   index: per block, frame length (8) + frame CRC32-C (4)
//	38+n+12c   4     CRC32-C of the index bytes [38+n, 38+n+12c)
//	42+n+12c   ...   concatenated armored frames (one CXA1 frame per block)
//
// Each block travels as a full armored frame, so every per-block integrity
// property PR 4 established — payload checksum, restored-output checksum,
// codec pinning, panic containment — holds per block on the open path. The
// index checksums the frame bytes a second time so a seek can reject a
// corrupted block without parsing it, and the header's whole-output
// checksum catches the one fault per-block frames cannot: blocks reordered
// (or substituted) together with a consistently rewritten index.

// BlockMagic identifies a multi-block container; it is the first four
// bytes of every sealed container.
const BlockMagic = "CXB1"

// BlockVersion is the current multi-block container format version.
const BlockVersion = 1

// DefaultBlockSize is the block granularity when BlockOptions does not set
// one: 1 MiB of symbols, large enough that per-block frame overhead and
// block-boundary ratio loss are negligible, small enough that dozens of
// blocks exist to parallelize over at chromosome scale.
const DefaultBlockSize = 1 << 20

// blockFixedOverhead is the container header size beyond the codec name:
// magic(4) + version(1) + name length(1) + bases(8) + block size(8) +
// block count(8) + output CRC(4) + header CRC(4).
const blockFixedOverhead = 38

// blockIndexEntrySize is the per-block index entry: frame length (8) +
// frame CRC32-C (4).
const blockIndexEntrySize = 12

// BlockOptions configures the block-engine seal path.
type BlockOptions struct {
	// BlockSize is the number of symbols per block; 0 means
	// DefaultBlockSize. Negative is rejected.
	BlockSize int
	// Jobs bounds how many blocks compress concurrently; <= 0 means
	// GOMAXPROCS. The container bytes are identical for any value.
	Jobs int
}

// resolve applies the option defaults.
func (o BlockOptions) resolve() (blockSize, jobs int, err error) {
	blockSize = o.BlockSize
	if blockSize == 0 {
		blockSize = DefaultBlockSize
	}
	if blockSize < 0 {
		return 0, 0, fmt.Errorf("compress: block size %d is negative", o.BlockSize)
	}
	jobs = o.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	return blockSize, jobs, nil
}

// BlockEntry is one parsed index entry: where a block's armored frame sits
// and what it must hash to.
type BlockEntry struct {
	// Length is the sealed frame length in bytes.
	Length int
	// Sum is the CRC32-C of the frame bytes.
	Sum uint32
}

// blockMetrics is the observability surface of the block engine: block and
// seek counters plus a per-block modeled-latency histogram, labeled by
// codec and direction.
type blockMetrics struct {
	sealed  *obs.Counter
	decoded *obs.Counter
	seeks   *obs.Counter
	sealMS  *obs.Histogram
	decMS   *obs.Histogram
}

func newBlockMetrics(reg *obs.Registry, codec string) blockMetrics {
	reg = obs.OrDefault(reg)
	labels := []string{"codec", codec}
	return blockMetrics{
		sealed:  reg.Counter("dna_block_sealed_total", "Blocks compressed and sealed by the block engine.", labels...),
		decoded: reg.Counter("dna_block_decoded_total", "Blocks decoded on the container open/seek path.", labels...),
		seeks:   reg.Counter("dna_block_seeks_total", "Random-access reads (Slice) served from CXA1 frames and CXB1 containers.", labels...),
		sealMS:  reg.Histogram("dna_block_model_ms", "Per-block modeled codec work in milliseconds.", obs.DefMSBuckets(), "codec", codec, "op", "compress"),
		decMS:   reg.Histogram("dna_block_model_ms", "Per-block modeled codec work in milliseconds.", obs.DefMSBuckets(), "codec", codec, "op", "decompress"),
	}
}

// Pack compresses symbols with the named codec and seals the result: with
// blockSize 0 into one CXA1 frame (Seal), with a positive blockSize into a
// CXB1 container of blocks that size (BlockCompressObserved, with one
// worker per processor). It is the one writer every sender uses. Like
// BlockCompressObserved, it books one ObserveCompress into reg (nil means
// the default registry) per call that reaches the codec, in either
// format: in is the base count, out the codec payload bytes, summed over
// blocks. The Stats are the codec's, summed over blocks.
func Pack(reg *obs.Registry, codecName string, symbols []byte, blockSize int) ([]byte, Stats, error) {
	if blockSize != 0 {
		return BlockCompressObserved(reg, codecName, symbols, BlockOptions{BlockSize: blockSize})
	}
	c, err := New(codecName)
	if err != nil {
		return nil, Stats{}, err
	}
	payload, st, err := c.Compress(symbols)
	ObserveCompress(reg, codecName, len(symbols), len(payload), st, err)
	if err != nil {
		return nil, st, err
	}
	return Seal(codecName, symbols, payload), st, nil
}

// BlockCompressObserved splits src into fixed-size blocks, compresses them
// on at most Jobs workers (par.For) with the named codec (a fresh instance
// per block, so adaptive codec state never crosses a block boundary), and
// assembles the multi-block container. The container bytes are identical
// for any Jobs value: workers fill index-ordered slots and assembly walks
// them in order. It records block counters and the per-block modeled
// latency histogram into reg (nil means the default registry), and books
// the call as Pack does.
func BlockCompressObserved(reg *obs.Registry, codecName string, src []byte, opts BlockOptions) ([]byte, Stats, error) {
	blockSize, jobs, err := opts.resolve()
	if err != nil {
		return nil, Stats{}, err
	}
	if _, err := New(codecName); err != nil {
		return nil, Stats{}, err
	}
	// Rounded up without adding blockSize to the length, which overflows
	// for block sizes near MaxInt.
	count := len(src)/blockSize + min(len(src)%blockSize, 1)
	met := newBlockMetrics(reg, codecName)

	// Compress blocks into index-ordered slots. A slot only ever has one
	// writer, so no lock guards the result slices and the assembly below
	// is deterministic.
	payloads := make([][]byte, count)
	sums := make([]uint32, count) // CRC32-C of each block's symbols
	stats := make([]Stats, count)
	errs := make([]error, count)
	par.For(count, jobs, func(k int) {
		lo := k * blockSize
		block := src[lo : lo+min(blockSize, len(src)-lo)]
		c, err := New(codecName)
		if err != nil {
			errs[k] = err
			return
		}
		payload, st, err := c.Compress(block)
		if err != nil {
			errs[k] = fmt.Errorf("block %d (%d bases at offset %d): %w", k, len(block), lo, err)
			return
		}
		payloads[k], sums[k], stats[k] = payload, Checksum(block), st
		met.sealed.Inc()
		met.sealMS.Observe(float64(st.WorkNS) / 1e6)
	})
	var total Stats
	payloadBytes := 0
	for k, payload := range payloads {
		total.Add(stats[k])
		payloadBytes += len(payload)
	}
	for _, e := range errs { // first failure by block index, deterministically
		if e != nil {
			err = fmt.Errorf("compress: %s: %w", codecName, e)
			break
		}
	}
	ObserveCompress(reg, codecName, len(src), payloadBytes, total, err)
	if err != nil {
		return nil, Stats{}, err
	}

	// Each block's frame is sealed straight into the container behind the
	// header and index, which are filled in around it.
	n := len(codecName)
	indexStart := blockFixedOverhead + n
	payloadStart := indexStart + count*blockIndexEntrySize + 4
	out := make([]byte, payloadStart, payloadStart+count*Overhead(codecName)+payloadBytes)
	copy(out[0:4], BlockMagic)
	out[4] = BlockVersion
	out[5] = byte(n)
	copy(out[6:], codecName)
	binary.BigEndian.PutUint64(out[6+n:], uint64(len(src)))
	binary.BigEndian.PutUint64(out[14+n:], uint64(blockSize))
	binary.BigEndian.PutUint64(out[22+n:], uint64(count))
	binary.BigEndian.PutUint32(out[30+n:], Checksum(src))
	binary.BigEndian.PutUint32(out[34+n:], Checksum(out[:34+n]))
	for k, payload := range payloads {
		lo := len(out)
		out = appendFrame(out, codecName, min(blockSize, len(src)-k*blockSize), sums[k], payload)
		e := indexStart + k*blockIndexEntrySize
		binary.BigEndian.PutUint64(out[e:], uint64(len(out)-lo))
		binary.BigEndian.PutUint32(out[e+8:], Checksum(out[lo:]))
	}
	binary.BigEndian.PutUint32(out[payloadStart-4:], Checksum(out[indexStart:payloadStart-4]))
	return out, total, nil
}

// BlockHeaderSize returns the container header size for a codec name: the
// offset at which the block index begins. The container adds this, one
// 12-byte index entry per block plus the 4-byte index checksum, and one
// frame Overhead per block on top of the codec payloads.
func BlockHeaderSize(codecName string) int { return blockFixedOverhead + len(codecName) }

// BlockReader is the validated view of a container: header and index are
// parsed and checksum-verified, block frames are located but not decoded.
// A single CXA1 frame is the one-block case: one index entry spans the
// frame. Decoding happens per block on demand (Slice) or across all blocks
// (Decompress, Verify), always through SafeDecompress's path with
// per-block limits, so a hostile frame inside a well-formed container is
// contained exactly like a hostile single frame.
//
// The reader holds one frame slice per block. OpenBlockIndex keeps the
// frames that came whole with its header and index; AttachFrames hands it
// the span FrameSpan names, and AttachFrame one block's frame fetched on
// its own. OpenBlocks is that open with every frame attached.
//
// A reader is safe for concurrent use once opened (and, if it has one,
// once its cache and frames are attached): it holds no decode state,
// every read decodes into caller-local buffers, and a BlockCache it shares
// with other readers locks its own state.
type BlockReader struct {
	codec     string
	bases     int
	blockSize int
	outputSum uint32
	index     []byte   // 12 bytes per block: frame length, frame CRC32-C
	frames    [][]byte // block k's frame, nil until supplied
	at, size  int      // container offset of block 0's frame; container bytes
	// maxCompressed is the resolved per-block payload ceiling from the
	// Limits handed to OpenBlocks.
	maxCompressed int
	met           blockMetrics
	cache         *BlockCache
}

// blockHeader is a parsed and checksum-verified CXB1 header.
type blockHeader struct {
	codec                   string
	bases, blockSize, count uint64
	outputSum               uint32
	indexStart              int
}

// parseBlockHeader validates the CXB1 header at the start of data: magic,
// version, field bounds, header checksum and limit enforcement, and that
// the block count matches the symbol count and block size.
func parseBlockHeader(data []byte, maxOutput int) (blockHeader, error) {
	if len(data) < blockFixedOverhead+1 {
		return blockHeader{}, Corruptf("blocks: %d bytes is shorter than the minimum header", len(data))
	}
	if string(data[0:4]) != BlockMagic {
		return blockHeader{}, Corruptf("blocks: bad magic %q", data[0:4])
	}
	if data[4] != BlockVersion {
		return blockHeader{}, Corruptf("blocks: unsupported version %d", data[4])
	}
	n := int(data[5])
	if n == 0 || n > maxFrameCodecName {
		return blockHeader{}, Corruptf("blocks: codec name length %d out of range", n)
	}
	if len(data) < blockFixedOverhead+n {
		return blockHeader{}, Corruptf("blocks: truncated header (%d bytes for name length %d)", len(data), n)
	}
	headerSum := binary.BigEndian.Uint32(data[34+n:])
	if got := Checksum(data[:34+n]); got != headerSum {
		return blockHeader{}, Corruptf("blocks: header checksum mismatch (stored %08x, computed %08x)", headerSum, got)
	}
	bases := binary.BigEndian.Uint64(data[6+n:])
	if bases > math.MaxInt {
		return blockHeader{}, Corruptf("blocks: symbol count %d overflows int", bases)
	}
	if int(bases) > maxOutput {
		return blockHeader{}, Corruptf("blocks: container claims %d symbols, limit %d", bases, maxOutput)
	}
	blockSize := binary.BigEndian.Uint64(data[14+n:])
	if blockSize == 0 || blockSize > math.MaxInt {
		return blockHeader{}, Corruptf("blocks: block size %d out of range", blockSize)
	}
	count := binary.BigEndian.Uint64(data[22+n:])
	if want := (bases + blockSize - 1) / blockSize; count != want {
		return blockHeader{}, Corruptf("blocks: %d blocks indexed, %d symbols at block size %d require %d", count, bases, blockSize, want)
	}
	return blockHeader{
		codec:      string(data[6 : 6+n]),
		bases:      bases,
		blockSize:  blockSize,
		count:      count,
		outputSum:  binary.BigEndian.Uint32(data[30+n:]),
		indexStart: blockFixedOverhead + n,
	}, nil
}

// BlockIndexLen reads the header at the start of prefix and returns how
// many leading container bytes OpenBlockIndex needs: the header and the
// index. prefix must hold the whole header, which its first 102 bytes (38
// fixed, and a codec name of at most 64) always do. A CXA1 frame, the
// one-block case, is its own index, so its answer is the whole frame.
// Every failure satisfies errors.Is(err, ErrCorrupt).
func BlockIndexLen(prefix []byte, lim Limits) (int, error) {
	_, maxOutput := lim.effective()
	if len(prefix) >= len(FrameMagic) && string(prefix[:len(FrameMagic)]) == FrameMagic {
		return frameLen(prefix)
	}
	h, err := parseBlockHeader(prefix, maxOutput)
	if err != nil {
		return 0, err
	}
	// count <= bases <= maxOutput, so the product cannot overflow.
	return h.indexStart + int(h.count)*blockIndexEntrySize + 4, nil
}

// OpenBlocks parses and validates a container from untrusted bytes without
// decoding any block: magic, version, field bounds, header checksum, limit
// enforcement, index sizing, index checksum and exact framing (truncated or
// extended containers are rejected). A CXA1 frame, validated by Open, is
// the one-block container: one index entry spans the frame, and the block
// size is its base count (at least 1). Every failure satisfies
// errors.Is(err, ErrCorrupt), and — the hostile-length contract — nothing
// proportional to a claimed size is allocated before that claim is proven
// consistent with the bytes actually present.
//
// lim bounds either format alike: MaxOutput caps the total symbol count at
// open, MaxCompressed caps each block's payload when the block is decoded.
// Metrics land in the default registry; use OpenBlocksObserved to aim them
// at a specific one.
func OpenBlocks(data []byte, lim Limits) (*BlockReader, error) {
	return OpenBlocksObserved(nil, data, lim)
}

// OpenBlocksObserved is OpenBlocks recording seek/decode counters into reg
// (nil means the default registry): OpenBlockIndex over data with every
// frame attached, the container required to end where its last frame does.
func OpenBlocksObserved(reg *obs.Registry, data []byte, lim Limits) (*BlockReader, error) {
	return openBlocks(reg, data, lim, true)
}

// OpenBlockIndex opens a reader from the leading container bytes: at least
// the BlockIndexLen bytes of header and index, validated as OpenBlocks
// validates them, and any frame bytes after them, which the reader keeps.
// The container's size comes from its index. Reads need the frames
// FrameSpan names; AttachFrames supplies them. A CXA1 frame is its own
// index, so its reader opens with its frame attached. Every failure
// satisfies errors.Is(err, ErrCorrupt), and allocation stays proportional
// to the bytes present, whatever the header claims. Metrics land in reg
// (nil means the default registry).
func OpenBlockIndex(reg *obs.Registry, head []byte, lim Limits) (*BlockReader, error) {
	return openBlocks(reg, head, lim, false)
}

// openBlocks is OpenBlockIndex, and with whole set OpenBlocks: then data
// must be the container, every frame is attached, and the frames must end
// exactly where data does.
func openBlocks(reg *obs.Registry, data []byte, lim Limits, whole bool) (*BlockReader, error) {
	maxCompressed, maxOutput := lim.effective()
	if len(data) >= len(FrameMagic) && string(data[:len(FrameMagic)]) == FrameMagic {
		if !whole {
			n, err := frameLen(data)
			if err != nil {
				return nil, err
			}
			data = data[:min(n, len(data))]
		}
		fr, err := Open(data)
		if err != nil {
			return nil, err
		}
		if fr.Bases > maxOutput {
			return nil, Corruptf("frame claims %d symbols, limit %d", fr.Bases, maxOutput)
		}
		// The frame is its own one-entry index.
		index := binary.BigEndian.AppendUint64(make([]byte, 0, blockIndexEntrySize), uint64(len(data)))
		return &BlockReader{
			codec:         fr.Codec,
			bases:         fr.Bases,
			blockSize:     max(fr.Bases, 1),
			outputSum:     fr.OutputSum,
			index:         binary.BigEndian.AppendUint32(index, Checksum(data)),
			frames:        [][]byte{data},
			size:          len(data),
			maxCompressed: maxCompressed,
			met:           newBlockMetrics(reg, fr.Codec),
		}, nil
	}
	h, err := parseBlockHeader(data, maxOutput)
	if err != nil {
		return nil, err
	}
	// The index must fit in the bytes that are actually present. Checking
	// against the buffer before allocating anything sized by the claim is
	// what keeps a hostile count from costing more than this comparison.
	avail := len(data) - h.indexStart - 4
	if avail < 0 || h.count > uint64(avail/blockIndexEntrySize) {
		return nil, Corruptf("blocks: truncated block index (%d bytes for %d entries)", len(data)-h.indexStart, h.count)
	}
	payloadStart := h.indexStart + int(h.count)*blockIndexEntrySize + 4
	indexSum := binary.BigEndian.Uint32(data[payloadStart-4:])
	if got := Checksum(data[h.indexStart : payloadStart-4]); got != indexSum {
		return nil, Corruptf("blocks: index checksum mismatch (stored %08x, computed %08x)", indexSum, got)
	}

	r := &BlockReader{
		codec:         h.codec,
		bases:         int(h.bases),
		blockSize:     int(h.blockSize),
		outputSum:     h.outputSum,
		index:         data[h.indexStart : payloadStart-4],
		frames:        make([][]byte, h.count),
		at:            payloadStart,
		maxCompressed: maxCompressed,
		met:           newBlockMetrics(reg, h.codec),
	}
	// room is what the frames may total: the bytes present after the
	// index for a whole container, else whatever an int can address.
	room := math.MaxInt - payloadStart
	if whole {
		room = len(data) - payloadStart
	}
	pos := 0
	for k := range r.frames {
		length := binary.BigEndian.Uint64(r.index[k*blockIndexEntrySize:])
		if length > uint64(room-pos) {
			return nil, Corruptf("blocks: index entry %d claims %d frame bytes, %d remain", k, length, room-pos)
		}
		pos += int(length)
	}
	if whole && pos != room {
		return nil, Corruptf("blocks: %d trailing bytes after the last frame", room-pos)
	}
	r.size = payloadStart + pos
	r.AttachFrames(payloadStart, data[payloadStart:])
	return r, nil
}

// Size returns the container's length in bytes, from its index.
func (r *BlockReader) Size() int { return r.size }

// FrameSpan returns the container bytes [lo, hi) holding the frames of
// the blocks that symbols [off, off+n) overlap: what a reader opened by
// OpenBlockIndex needs attached before Slice(off, n). Slice's range rules
// apply; outside them the span is empty.
func (r *BlockReader) FrameSpan(off, n int) (lo, hi int) {
	if off < 0 || n <= 0 || off+n > r.bases || off+n < 0 {
		return 0, 0
	}
	first, last, at := off/r.blockSize, (off+n-1)/r.blockSize, r.at
	for k := 0; k <= last; k++ {
		if k == first {
			lo = at
		}
		at += r.entry(k).Length
	}
	return lo, at
}

// AttachFrames hands the reader the container bytes [lo, lo+len(span)):
// each block whose whole frame they hold takes its slice of them, and the
// rest keep what they held. A block left without a frame fails to decode
// as corrupt: a container that ends early reads that way. The reader
// keeps span, as OpenBlocks keeps its data, and reads it only through
// checksums, so the caller must not write to it afterwards. Call it, and
// AttachFrame, before the reader is shared.
func (r *BlockReader) AttachFrames(lo int, span []byte) {
	at := r.at
	for k := range r.frames {
		end := at + r.entry(k).Length
		if at >= lo && end-lo <= len(span) {
			//lint:ignore copydiscipline the reader aliases the container bytes it is handed, as OpenBlocks does; a copy would double every range read's fetch
			r.frames[k] = span[at-lo : end-lo]
		}
		at = end
	}
}

// AttachFrame hands the reader block k's frame, fetched on its own, and
// keeps it as AttachFrames keeps its span. A block the container lacks,
// or a frame whose length is not its index entry's, is refused as corrupt.
func (r *BlockReader) AttachFrame(k int, frame []byte) error {
	if k < 0 || k >= len(r.frames) {
		return Corruptf("blocks: a frame for block %d of a %d-block container", k, len(r.frames))
	}
	if want := r.entry(k).Length; len(frame) != want {
		return Corruptf("blocks: block %d frame is %d bytes, its index entry says %d", k, len(frame), want)
	}
	//lint:ignore copydiscipline the reader aliases the frame it is handed, as AttachFrames does; a copy would double every received byte
	r.frames[k] = frame
	return nil
}

// Frame returns block k's frame, nil if it has none: the caller's own
// bytes, which it must not write to.
func (r *BlockReader) Frame(k int) []byte {
	//lint:ignore copydiscipline the frame is the caller's own container bytes, never written by the reader; a copy would double what an exchange uploads
	return r.frames[k]
}

// Codec returns the registry identifier recorded in the container header.
func (r *BlockReader) Codec() string { return r.codec }

// Bases returns the total symbol count the container restores to.
func (r *BlockReader) Bases() int { return r.bases }

// BlockSize returns the per-block symbol granularity.
func (r *BlockReader) BlockSize() int { return r.blockSize }

// Blocks returns the number of blocks in the container.
func (r *BlockReader) Blocks() int { return len(r.frames) }

// Index returns a copy of the per-block index (frame length and checksum
// per block) — a copy, so callers cannot corrupt the reader's view.
func (r *BlockReader) Index() []BlockEntry {
	index := make([]BlockEntry, len(r.frames))
	for k := range index {
		index[k] = r.entry(k)
	}
	return index
}

// entry returns block k's index entry, whose length open bounded.
func (r *BlockReader) entry(k int) BlockEntry {
	e := r.index[k*blockIndexEntrySize:]
	return BlockEntry{Length: int(binary.BigEndian.Uint64(e)), Sum: binary.BigEndian.Uint32(e[8:])}
}

// UseCache makes the reader look each block up in c before decoding it
// and store each block it decodes there; nil detaches. Call it before the
// reader is shared.
func (r *BlockReader) UseCache(c *BlockCache) { r.cache = c }

// blockBases returns the symbol count block k must restore to: a full
// block everywhere except the tail.
func (r *BlockReader) blockBases(k int) int {
	if k == len(r.frames)-1 {
		return r.bases - k*r.blockSize
	}
	return r.blockSize
}

// block restores block k through the hardened per-frame path into
// dst[:0]'s backing array: the index checksum proves the frame bytes
// arrived intact before any parsing, then SafeDecompress's path pins the
// container's codec, bounds the block's output to exactly its slot in
// symbol space, contains codec panics, and verifies the restored symbols
// against the frame's own checksum. With a cache, a frame past the index
// checksum and within the payload limit is looked up by codec and SHA-256
// first, and a block that passed every check is stored.
func (r *BlockReader) block(k int, dst []byte) (blockSyms, Stats, error) {
	frame, e := r.frames[k], r.entry(k)
	if frame == nil {
		return blockSyms{}, Stats{}, Corruptf("blocks: block %d frame of %d bytes was not supplied", k, e.Length)
	}
	if got := Checksum(frame); got != e.Sum {
		return blockSyms{}, Stats{}, Corruptf("blocks: block %d frame checksum mismatch (stored %08x, computed %08x)", k, e.Sum, got)
	}
	want := r.blockBases(k)
	var key Key
	cached := r.cache.fits(want) && len(frame)-Overhead(r.codec) <= r.maxCompressed
	if cached {
		key = ContentKey(r.codec, frame)
		if e := r.cache.get(key, want); e != nil {
			return blockSyms{hit: e}, e.st, nil
		}
	}
	out, st, err := safeDecompress(dst, r.codec, frame, Limits{MaxCompressed: r.maxCompressed, MaxOutput: want})
	if err != nil {
		return blockSyms{}, Stats{}, Corruptf("blocks: block %d: %v", k, err)
	}
	if len(out) != want {
		return blockSyms{}, Stats{}, Corruptf("blocks: block %d restored %d symbols, slot holds %d", k, len(out), want)
	}
	r.met.decoded.Inc()
	r.met.decMS.Observe(float64(st.WorkNS) / 1e6)
	if cached {
		r.cache.put(key, out, st)
	}
	return blockSyms{plain: out}, st, nil
}

// Decompress restores the full symbol sequence: every block decoded
// through the hardened per-block path, then the container's whole-output
// checksum verified over the result. That final check is what per-block
// frames cannot provide — it catches blocks reordered or substituted
// together with a consistently rewritten index. The output grows with the
// blocks that have decoded (restore), so nothing sized by the header's
// claim is allocated before block 0 decodes. A one-block reader returns
// the codec's own buffer; otherwise peak memory is at most about twice
// the output plus one block's working set.
func (r *BlockReader) Decompress() ([]byte, Stats, error) {
	return r.restore(true)
}

// Verify proves the container restores — every check Decompress makes,
// the whole-output checksum included, with the same verdict — without
// holding its output: each block decodes into the buffer the block before
// it used, and the checksum is taken block by block. Peak memory is one
// block and one block's working set. It returns Decompress's Stats.
func (r *BlockReader) Verify() (Stats, error) {
	_, st, err := r.restore(false)
	return st, err
}

// restore is Decompress's and Verify's one loop. It decodes every block
// in order, block 0 into a buffer its codec allocates. With keep, that
// buffer is the output, and each later block decodes into a slot at its
// end, grown by grow and capped at the block's length: a codec that
// overruns it reallocates, and the length check refuses the block.
// Without keep, each block decodes into the previous block's buffer, and
// there is no output. It takes the CRC32-C of the symbols as they come and
// checks it against the header's.
func (r *BlockReader) restore(keep bool) ([]byte, Stats, error) {
	var total Stats
	var sum uint32
	var out, syms []byte
	for k := range r.frames {
		n := r.blockBases(k)
		dst := syms[:0]
		if keep && k > 0 {
			out = grow(out, n, r.bases-len(out))
			dst = out[len(out) : len(out) : len(out)+n]
		}
		b, st, err := r.block(k, dst)
		if err != nil {
			return nil, Stats{}, err
		}
		total.Add(st)
		syms = b.in(dst, n)
		sum = crc32.Update(sum, crcTable, syms)
		if keep && k == 0 {
			out = syms
		} else if keep {
			out = out[:len(out)+n] // syms, decoded into dst
		}
	}
	if sum != r.outputSum {
		return nil, Stats{}, Corruptf("blocks: restored output checksum mismatch (stored %08x, computed %08x)", r.outputSum, sum)
	}
	return out, total, nil
}

// grow returns out with room for need more symbols, moving it, if it
// lacks that, into a buffer with room for need or for as many symbols as
// it holds plus MaxHeaderPrealloc, never past the rest claimed: an output
// grows geometrically, and a claim commits at most MaxHeaderPrealloc
// ahead of the symbols decoded. need must not exceed rest.
func grow(out []byte, need, rest int) []byte {
	if cap(out)-len(out) >= need {
		return out
	}
	return append(make([]byte, 0, len(out)+max(need, min(rest, len(out)+MaxHeaderPrealloc))), out...)
}

// Slice decodes and returns the n symbols starting at off, decoding only
// the blocks the range overlaps, its output grown as they decode (grow).
// Out-of-range requests are caller errors, not corruption. The
// seek-equivalence property — Slice(off, n) equals the same slice of
// Decompress()'s output — is what compresstest.BlockSuite proves for
// every codec.
func (r *BlockReader) Slice(off, n int) ([]byte, Stats, error) {
	if off < 0 || n < 0 || off+n > r.bases || off+n < 0 {
		return nil, Stats{}, fmt.Errorf("compress: blocks: slice [%d, %d+%d) out of range [0, %d)", off, off, n, r.bases)
	}
	r.met.seeks.Inc()
	dst := []byte{}
	var total Stats
	for len(dst) < n {
		pos := off + len(dst)
		k := pos / r.blockSize
		b, st, err := r.block(k, nil)
		if err != nil {
			return nil, Stats{}, err
		}
		total.Add(st)
		lo := pos - k*r.blockSize
		c := min(n-len(dst), r.blockBases(k)-lo)
		dst = grow(dst, c, n-len(dst))
		dst = dst[:len(dst)+b.copyTo(dst[len(dst):len(dst)+c], lo)]
	}
	return dst, total, nil
}

// SafeDecompressAny restores symbols from either container format: it
// opens data with OpenBlocks, pins the codec when name is non-empty, and
// decodes every block. Every failure satisfies errors.Is(err, ErrCorrupt).
func SafeDecompressAny(name string, data []byte, lim Limits) ([]byte, Stats, error) {
	r, err := OpenBlocks(data, lim)
	if err != nil {
		return nil, Stats{}, err
	}
	if name != "" && r.Codec() != name {
		return nil, Stats{}, Corruptf("container records codec %q, want %q", r.Codec(), name)
	}
	return r.Decompress()
}
