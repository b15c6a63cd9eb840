package bitio

import (
	"io"
	"testing"
	"testing/quick"
)

func TestWriteReadBit(t *testing.T) {
	w := NewWriter(4)
	pattern := []uint{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1}
	for _, b := range pattern {
		w.WriteBit(b)
	}
	r := NewReader(w.Bytes())
	for i, want := range pattern {
		got, err := r.ReadBit()
		if err != nil {
			t.Fatalf("bit %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("bit %d: got %d want %d", i, got, want)
		}
	}
}

func TestBytePadding(t *testing.T) {
	w := NewWriter(1)
	w.WriteBit(1)
	b := w.Bytes()
	if len(b) != 1 || b[0] != 0x80 {
		t.Fatalf("got %v, want [0x80]", b)
	}
	if w.BitLen() != 1 {
		t.Fatalf("BitLen = %d, want 1", w.BitLen())
	}
}

func TestReadPastEnd(t *testing.T) {
	r := NewReader([]byte{0xff})
	for i := 0; i < 8; i++ {
		if _, err := r.ReadBit(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.ReadBit(); err != io.ErrUnexpectedEOF {
		t.Fatalf("got %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestBitLenCountsEveryBit: BitLen is fib's oracle for fib.Len, so it must
// count every bit across byte boundaries, and Bytes must pad to whole bytes.
func TestBitLenCountsEveryBit(t *testing.T) {
	for n := 0; n <= 17; n++ {
		w := NewWriter(-1) // a negative hint is treated as zero
		for i := 0; i < n; i++ {
			w.WriteBit(uint(i))
		}
		if w.BitLen() != n {
			t.Fatalf("after %d bits BitLen = %d", n, w.BitLen())
		}
		if got, want := len(w.Bytes()), (n+7)/8; got != want {
			t.Fatalf("after %d bits Bytes is %d long, want %d", n, got, want)
		}
	}
}

// TestWriterUsableAfterBytes: Bytes pads a copy, so writing on from the
// unpadded position yields the same stream as never calling it.
func TestWriterUsableAfterBytes(t *testing.T) {
	pattern := []uint{1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 1}
	w := NewWriter(0)
	for i, b := range pattern {
		if i == 3 {
			if got := w.Bytes(); len(got) != 1 || got[0] != 0xc0 {
				t.Fatalf("mid-stream Bytes = %#v, want [0xc0]", got)
			}
		}
		w.WriteBit(b)
	}
	whole := NewWriter(0)
	for _, b := range pattern {
		whole.WriteBit(b)
	}
	if got, want := w.Bytes(), whole.Bytes(); string(got) != string(want) {
		t.Fatalf("stream after a mid-stream Bytes = %#v, want %#v", got, want)
	}
}

// TestQuickBitRoundTrip: any bit sequence reads back in order, followed by
// zero padding up to the byte boundary and then io.ErrUnexpectedEOF.
func TestQuickBitRoundTrip(t *testing.T) {
	f := func(bits []bool) bool {
		w := NewWriter(len(bits) / 8)
		for _, b := range bits {
			var v uint
			if b {
				v = 1
			}
			w.WriteBit(v)
		}
		r := NewReader(w.Bytes())
		for _, b := range bits {
			got, err := r.ReadBit()
			if err != nil || (got == 1) != b {
				return false
			}
		}
		for i := len(bits); i%8 != 0; i++ {
			if got, err := r.ReadBit(); err != nil || got != 0 {
				return false
			}
		}
		_, err := r.ReadBit()
		return err == io.ErrUnexpectedEOF
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWriteBit(b *testing.B) {
	w := NewWriter(1 << 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if w.BitLen() > 1<<23 {
			w = NewWriter(1 << 20)
		}
		w.WriteBit(uint(i) & 1)
	}
}
