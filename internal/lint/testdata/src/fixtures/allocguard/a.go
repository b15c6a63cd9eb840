// Package allocguard is a dnalint fixture for the hostile-header
// allocation discipline: neither make() nor slices.Grow may be sized by a
// decoded header field that no comparison has bounded.
package allocguard

import (
	"encoding/binary"
	"slices"

	"github.com/srl-nuces/ctxdna/internal/compress"
)

func unguarded(data []byte) []uint64 {
	count := binary.BigEndian.Uint64(data)
	return make([]uint64, count) // want `decoded header field with no dominating bound`
}

// guarded is the CXB1 OpenBlocks shape: the claim is compared against the
// bytes actually present before memory is committed.
func guarded(data []byte) ([]uint64, bool) {
	count := binary.BigEndian.Uint64(data)
	avail := len(data) - 8
	if avail < 0 || count > uint64(avail/12) {
		return nil, false
	}
	return make([]uint64, count), true // ok: count bounded by avail
}

// viaArithmetic proves taint follows arithmetic into the size expression.
func viaArithmetic(data []byte) []byte {
	n := binary.BigEndian.Uint32(data)
	return make([]byte, 3*int(n)+8) // want `decoded header field with no dominating bound`
}

// viaLocals proves taint follows assignment chains and uvarint decoding.
func viaLocals(data []byte) []byte {
	claim, _ := binary.Uvarint(data)
	size := claim
	return make([]byte, size) // want `decoded header field with no dominating bound`
}

// clamped uses the sanctioned helper: prealloc capped, growth by append.
func clamped(data []byte) []byte {
	claim, _ := binary.Uvarint(data)
	return make([]byte, 0, compress.HeaderPrealloc(claim)) // ok: clamped
}

// grownUnguarded grows a caller's buffer by the claim: a decoder restoring
// into dst commits the claim's memory as surely as make would.
func grownUnguarded(dst, data []byte) []byte {
	claim, _ := binary.Uvarint(data)
	return slices.Grow(dst[:0], int(claim)) // want `slices.Grow sized by a decoded header field`
}

// grownClamped is the decoders' shape: the caller's buffer grows to the
// clamped claim at most, then by append.
func grownClamped(dst, data []byte) []byte {
	claim, _ := binary.Uvarint(data)
	return slices.Grow(dst[:0], compress.HeaderPrealloc(claim)) // ok: clamped
}

// grownGuarded bounds the claim by the bytes present first, as twobit's
// header check does: the payload holds every claimed base.
func grownGuarded(dst, data []byte) []byte {
	claim, _ := binary.Uvarint(data)
	if claim > uint64(len(data))*4 {
		return nil
	}
	return slices.Grow(dst[:0], int(claim)) // ok: claim bounded by the bytes present
}

// minClamped uses the builtin min bound.
func minClamped(data []byte) []byte {
	claim, _ := binary.Uvarint(data)
	return make([]byte, 0, min(int(claim), 1<<20)) // ok: min is a bound
}

// incremental grows with the work actually done: the loop condition
// comparing against the claim is the bound.
func incremental(data []byte) []byte {
	claim, _ := binary.Uvarint(data)
	var out []byte
	for uint64(len(out)) < claim {
		out = append(out, 0)
	}
	return out // ok: allocation proportional to appends
}

// lenSized proves len() of the input itself is not a header claim.
func lenSized(data []byte) []byte {
	return make([]byte, 0, len(data)) // ok: sized by bytes actually present
}

func suppressed(data []byte) []byte {
	claim, _ := binary.Uvarint(data)
	//lint:ignore allocguard fixture exercises the suppression directive
	return make([]byte, claim)
}
