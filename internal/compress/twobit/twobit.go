// Package twobit implements the naïve 2-bits-per-base codec. It is the
// floor every DNA-specific algorithm must beat (paper Table 1 lists "naïve
// 2-bits" as one of DNAPack's non-repeat fallbacks) and doubles as the
// fastest possible baseline in timing comparisons.
package twobit

import (
	"encoding/binary"

	"github.com/srl-nuces/ctxdna/internal/compress"
	"github.com/srl-nuces/ctxdna/internal/seq"
)

func init() {
	compress.Register("twobit", func() compress.Codec { return Codec{} })
}

// Codec is stateless; the zero value is ready to use.
type Codec struct{}

// Name implements compress.Codec.
func (Codec) Name() string { return "twobit" }

// Work model: a packing pass touches each base once; ~1.2 ns/base on the
// reference core (measured by BenchmarkPack in package seq).
const nsPerBase = 1.2

// Compress implements compress.Codec.
func (Codec) Compress(src []byte) ([]byte, compress.Stats, error) {
	if !seq.Valid(src) {
		return nil, compress.Stats{}, compress.Corruptf("twobit: input contains non-nucleotide symbols")
	}
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(src)))
	out := make([]byte, 0, n+(len(src)+3)/4)
	out = append(out, hdr[:n]...)
	out = append(out, seq.Pack(src)...)
	st := compress.Stats{
		WorkNS:  int64(nsPerBase * float64(len(src))),
		PeakMem: len(out) + len(src),
	}
	return out, st, nil
}

// Decompress implements compress.Codec.
func (c Codec) Decompress(data []byte) ([]byte, compress.Stats, error) {
	return c.DecompressTo(nil, data)
}

// DecompressTo implements compress.Codec.
func (Codec) DecompressTo(dst, data []byte) ([]byte, compress.Stats, error) {
	n, used := binary.Uvarint(data)
	if used <= 0 {
		return nil, compress.Stats{}, compress.Corruptf("twobit: bad length header")
	}
	if n > uint64(len(data))*4 {
		return nil, compress.Stats{}, compress.Corruptf("twobit: declared %d bases exceeds payload", n)
	}
	out, err := seq.Unpack(dst, data[used:], int(n))
	if err != nil {
		return nil, compress.Stats{}, compress.Corruptf("twobit: %v", err)
	}
	st := compress.Stats{
		WorkNS:  int64(nsPerBase * float64(n)),
		PeakMem: int(n) + len(data),
	}
	return out, st, nil
}
