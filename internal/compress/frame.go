package compress

import (
	"encoding/binary"
	"hash/crc32"
	"math"
)

// The armored frame is the container every compressed stream travels in
// once it leaves the process that produced it: the result cache, the cloud
// exchange loop and the dnacomp container format all seal codec payloads
// into frames. A frame is self-describing — a receiver needs no side
// channel (and, critically, no copy of the original source) to know which
// codec to run, how many symbols to expect back, and whether either the
// payload or the restored output was corrupted in transit.
//
// Layout (big-endian, n = len(codec name)):
//
//	offset    size  field
//	0         4     magic "CXA1"
//	4         1     format version (currently 1)
//	5         1     codec name length n (1..64)
//	6         n     codec name (registry identifier)
//	6+n       8     original symbol count (bases)
//	14+n      8     payload length in bytes
//	22+n      4     CRC32-C of the restored symbol output
//	26+n      4     CRC32-C of the payload
//	30+n      4     CRC32-C of the header bytes [0, 30+n)
//	34+n      ...   payload
//
// The header checksum catches tampering with any descriptive field, the
// payload checksum catches transport corruption before a codec ever parses
// the bytes, and the output checksum catches the residual class of faults —
// a payload that still parses but restores the wrong symbols.

// FrameMagic identifies an armored frame; it is the first four bytes of
// every sealed container.
const FrameMagic = "CXA1"

// FrameVersion is the current frame format version.
const FrameVersion = 1

// maxFrameCodecName bounds the codec-name field; registry names are short
// identifiers, so anything longer marks a malformed header.
const maxFrameCodecName = 64

// frameFixedOverhead is the header size beyond the codec name: magic(4) +
// version(1) + name length(1) + bases(8) + payload length(8) + three
// CRC32-C checksums (12).
const frameFixedOverhead = 34

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the frame checksum function: CRC32-C over b.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, crcTable) }

// Frame is the parsed view of an armored container.
type Frame struct {
	// Codec is the registry identifier recorded in the header.
	Codec string
	// Bases is the original symbol count the payload must restore to.
	Bases int
	// OutputSum is the CRC32-C the restored symbols must hash to.
	OutputSum uint32
	// PayloadSum is the CRC32-C of Payload, already verified by Open.
	PayloadSum uint32
	// Payload is the codec stream. It aliases the buffer passed to Open.
	Payload []byte
}

// Overhead returns the frame header size for a codec name of length n: the
// number of bytes Seal adds on top of the payload.
func Overhead(codecName string) int { return frameFixedOverhead + len(codecName) }

// Seal armors a codec payload produced from src: it records the codec
// identity, the original symbol count, and checksums over both the payload
// and the symbols the payload must restore to. The result is what Open and
// SafeDecompress validate on the receiving side.
func Seal(codecName string, src, payload []byte) []byte {
	return SealSum(codecName, len(src), Checksum(src), payload)
}

// SealSum is Seal for callers that no longer hold the original symbols but
// know their count and checksum (a relay re-armoring a stream, or a test
// constructing a deliberately inconsistent frame).
func SealSum(codecName string, bases int, outputSum uint32, payload []byte) []byte {
	return appendFrame(make([]byte, 0, Overhead(codecName)+len(payload)), codecName, bases, outputSum, payload)
}

// appendFrame appends to dst the frame SealSum returns: the header, then
// payload. The block engine seals each block's frame straight into its
// container through it.
func appendFrame(dst []byte, codecName string, bases int, outputSum uint32, payload []byte) []byte {
	if len(codecName) == 0 || len(codecName) > maxFrameCodecName {
		panic("compress: Seal: codec name length out of range")
	}
	h := len(dst)
	dst = append(dst, FrameMagic...)
	dst = append(dst, FrameVersion, byte(len(codecName)))
	dst = append(dst, codecName...)
	dst = binary.BigEndian.AppendUint64(dst, uint64(bases))
	dst = binary.BigEndian.AppendUint64(dst, uint64(len(payload)))
	dst = binary.BigEndian.AppendUint32(dst, outputSum)
	dst = binary.BigEndian.AppendUint32(dst, Checksum(payload))
	dst = binary.BigEndian.AppendUint32(dst, Checksum(dst[h:]))
	return append(dst, payload...)
}

// Open parses and validates an armored frame from untrusted bytes: magic,
// version, field bounds, the header checksum, exact framing (truncated or
// extended buffers are rejected), and the payload checksum. Every failure
// satisfies errors.Is(err, ErrCorrupt). The returned Payload aliases data.
//
// Open proves the payload arrived intact; it does not run the codec. Use
// SafeDecompress to also restore and verify the symbols.
func Open(data []byte) (Frame, error) {
	n, err := frameHeader(data)
	if err != nil {
		return Frame{}, err
	}
	bases := binary.BigEndian.Uint64(data[6+n:])
	if bases > math.MaxInt {
		return Frame{}, Corruptf("frame: symbol count %d overflows int", bases)
	}
	payloadLen := binary.BigEndian.Uint64(data[14+n:])
	rest := uint64(len(data) - frameFixedOverhead - n)
	if payloadLen > rest {
		return Frame{}, Corruptf("frame: truncated payload (%d of %d bytes)", rest, payloadLen)
	}
	if payloadLen < rest {
		return Frame{}, Corruptf("frame: %d trailing bytes after the payload", rest-payloadLen)
	}
	fr := Frame{
		Codec:      string(data[6 : 6+n]),
		Bases:      int(bases),
		OutputSum:  binary.BigEndian.Uint32(data[22+n:]),
		PayloadSum: binary.BigEndian.Uint32(data[26+n:]),
		Payload:    data[frameFixedOverhead+n:],
	}
	if got := Checksum(fr.Payload); got != fr.PayloadSum {
		return Frame{}, Corruptf("frame: payload checksum mismatch (stored %08x, computed %08x)", fr.PayloadSum, got)
	}
	return fr, nil
}

// frameHeader validates the frame header at the start of data (magic,
// version, codec name length and the header checksum) and returns the
// codec name's length.
func frameHeader(data []byte) (int, error) {
	if len(data) < frameFixedOverhead+1 {
		return 0, Corruptf("frame: %d bytes is shorter than the minimum header", len(data))
	}
	if string(data[0:4]) != FrameMagic {
		return 0, Corruptf("frame: bad magic %q", data[0:4])
	}
	if data[4] != FrameVersion {
		return 0, Corruptf("frame: unsupported version %d", data[4])
	}
	n := int(data[5])
	if n == 0 || n > maxFrameCodecName {
		return 0, Corruptf("frame: codec name length %d out of range", n)
	}
	if len(data) < frameFixedOverhead+n {
		return 0, Corruptf("frame: truncated header (%d bytes for name length %d)", len(data), n)
	}
	headerSum := binary.BigEndian.Uint32(data[30+n:])
	if got := Checksum(data[:30+n]); got != headerSum {
		return 0, Corruptf("frame: header checksum mismatch (stored %08x, computed %08x)", headerSum, got)
	}
	return n, nil
}

// frameLen validates the frame header at the start of data and returns
// the frame's length.
func frameLen(data []byte) (int, error) {
	n, err := frameHeader(data)
	if err != nil {
		return 0, err
	}
	payloadLen := binary.BigEndian.Uint64(data[14+n:])
	if payloadLen > uint64(math.MaxInt-frameFixedOverhead-n) {
		return 0, Corruptf("frame: payload length %d overflows int", payloadLen)
	}
	return frameFixedOverhead + n + int(payloadLen), nil
}
