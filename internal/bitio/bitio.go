// Package bitio provides bit-granular writing and reading on top of byte
// slices: the bit stream that carries the Fibonacci-coded repeat tokens of
// the BioCompress codec.
//
// Bits are written most-significant-bit first within each byte, which keeps
// the on-disk format independent of host endianness and makes streams easy
// to inspect in hex dumps.
package bitio

import "io"

// Writer accumulates bits into an internal buffer. The zero value is ready
// to use. Writer never fails: it grows its buffer as needed, so the bit-level
// methods have no error return, which keeps the hot encoding loops branch-lean.
type Writer struct {
	buf  []byte
	cur  byte // partially filled byte
	nCur uint // number of bits currently in cur (0..7)
}

// NewWriter returns a Writer with capacity preallocated for sizeHint bytes.
func NewWriter(sizeHint int) *Writer {
	if sizeHint < 0 {
		sizeHint = 0
	}
	return &Writer{buf: make([]byte, 0, sizeHint)}
}

// WriteBit appends a single bit (0 or 1).
func (w *Writer) WriteBit(bit uint) {
	w.cur = w.cur<<1 | byte(bit&1)
	w.nCur++
	if w.nCur == 8 {
		w.buf = append(w.buf, w.cur)
		w.cur, w.nCur = 0, 0
	}
}

// BitLen reports the total number of bits written so far.
func (w *Writer) BitLen() int { return len(w.buf)*8 + int(w.nCur) }

// Bytes flushes the partial byte (zero padded on the right) and returns the
// accumulated buffer. The Writer remains usable; further writes continue from
// the unpadded bit position, so call Bytes only once encoding is complete.
func (w *Writer) Bytes() []byte {
	if w.nCur == 0 {
		return w.buf
	}
	out := make([]byte, len(w.buf)+1)
	copy(out, w.buf)
	out[len(w.buf)] = w.cur << (8 - w.nCur)
	return out
}

// Reader consumes bits from a byte slice produced by Writer.
type Reader struct {
	buf  []byte
	pos  int  // next byte index
	cur  byte // current byte being consumed
	nCur uint // bits remaining in cur
}

// NewReader returns a Reader over p. The Reader does not copy p.
func NewReader(p []byte) *Reader { return &Reader{buf: p} }

// ReadBit returns the next bit. It returns io.ErrUnexpectedEOF when the
// stream is exhausted.
func (r *Reader) ReadBit() (uint, error) {
	if r.nCur == 0 {
		if r.pos >= len(r.buf) {
			return 0, io.ErrUnexpectedEOF
		}
		r.cur = r.buf[r.pos]
		r.pos++
		r.nCur = 8
	}
	r.nCur--
	return uint(r.cur >> r.nCur & 1), nil
}
