// Package seq provides the DNA sequence representation shared by every codec
// and tool in this repository: the 2-bit nucleotide alphabet, base/complement
// conversion, bit packing, validation, and cleaning of raw sequence text.
//
// Sequences are held as byte slices of symbol codes 0..3 (A,C,G,T). Codecs
// operate on symbol slices; Encode, Clean and Decode convert between ASCII
// text and symbols.
package seq

import (
	"errors"
	"fmt"
	"slices"
)

// Nucleotide symbol codes. The complement of code c is 3-c, which makes
// reverse-complement computation branch-free: A<->T (0<->3), C<->G (1<->2).
const (
	A byte = 0
	C byte = 1
	G byte = 2
	T byte = 3
)

// ErrInvalidBase reports a character outside the ACGT alphabet.
var ErrInvalidBase = errors.New("seq: invalid nucleotide")

// baseToCode maps ASCII to symbol code; 0xFF marks invalid characters.
var baseToCode = func() [256]byte {
	var t [256]byte
	for i := range t {
		t[i] = 0xFF
	}
	t['A'], t['a'] = A, A
	t['C'], t['c'] = C, C
	t['G'], t['g'] = G, G
	t['T'], t['t'] = T, T
	return t
}()

// codeToBase maps symbol code to upper-case ASCII.
var codeToBase = [4]byte{'A', 'C', 'G', 'T'}

// Base returns the upper-case ASCII letter for a symbol code 0..3.
func Base(code byte) byte { return codeToBase[code&3] }

// Complement returns the complementary symbol code.
func Complement(code byte) byte { return 3 - (code & 3) }

// Encode converts an ASCII sequence to symbol codes, in a new buffer. It
// fails on the first non-ACGT character; use Clean to strip such
// characters instead.
func Encode(ascii []byte) ([]byte, error) {
	return EncodeTo(make([]byte, len(ascii)), ascii)
}

// EncodeTo is Encode writing the codes into dst, which must be at least as
// long, and returning dst[:len(ascii)]. dst may be ascii itself: the
// conversion is then in place.
func EncodeTo(dst, ascii []byte) ([]byte, error) {
	dst = dst[:len(ascii)]
	for i, b := range ascii {
		c := baseToCode[b]
		if c == 0xFF {
			return nil, fmt.Errorf("%w: %q at offset %d", ErrInvalidBase, b, i)
		}
		dst[i] = c
	}
	return dst, nil
}

// Decode converts symbol codes back to upper-case ASCII, in a new buffer.
func Decode(codes []byte) []byte {
	return DecodeTo(make([]byte, len(codes)), codes)
}

// DecodeTo writes the upper-case ASCII of codes into dst, which must be
// at least as long, and returns dst[:len(codes)]. dst may be codes
// itself: the conversion is then in place.
func DecodeTo(dst, codes []byte) []byte {
	dst = dst[:len(codes)]
	for i, c := range codes {
		dst[i] = codeToBase[c&3]
	}
	return dst
}

// Valid reports whether every element of codes is a legal symbol (0..3).
func Valid(codes []byte) bool {
	for _, c := range codes {
		if c > 3 {
			return false
		}
	}
	return true
}

// ReverseComplement returns the reverse complement of codes as a new slice.
func ReverseComplement(codes []byte) []byte {
	out := make([]byte, len(codes))
	for i, c := range codes {
		out[len(codes)-1-i] = 3 - (c & 3)
	}
	return out
}

// Pack stores symbols at 2 bits per base: 4 bases per byte, first base in the
// two most significant bits. The symbol count must be carried out of band
// (Unpack takes it explicitly) because the packed form cannot express it.
func Pack(codes []byte) []byte {
	out := make([]byte, (len(codes)+3)/4)
	for i, c := range codes {
		out[i/4] |= (c & 3) << uint(6-2*(i%4))
	}
	return out
}

// Unpack expands n symbols from packed 2-bit form into dst[:0]'s backing
// array, or a new one if it has less room.
func Unpack(dst, packed []byte, n int) ([]byte, error) {
	if need := (n + 3) / 4; need > len(packed) {
		return nil, fmt.Errorf("seq: packed buffer holds %d bytes, need %d for %d bases", len(packed), need, n)
	}
	out := slices.Grow(dst[:0], n)[:n]
	UnpackAt(out, packed, 0)
	return out, nil
}

// UnpackAt expands the len(dst) symbols starting at symbol off of packed
// 2-bit form into dst; packed must hold them.
func UnpackAt(dst, packed []byte, off int) {
	for i := range dst {
		j := off + i
		dst[i] = packed[j/4] >> uint(6-2*(j%4)) & 3
	}
}

// GCContent returns the fraction of G and C bases, the standard compositional
// statistic the synthetic corpus generator controls.
func GCContent(codes []byte) float64 {
	if len(codes) == 0 {
		return 0
	}
	var gc int
	for _, c := range codes {
		if c == C || c == G {
			gc++
		}
	}
	return float64(gc) / float64(len(codes))
}

// Counts returns the number of occurrences of each of the four bases.
func Counts(codes []byte) [4]int {
	var n [4]int
	for _, c := range codes {
		n[c&3]++
	}
	return n
}
