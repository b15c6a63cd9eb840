package fib

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/srl-nuces/ctxdna/internal/bitio"
)

func TestKnownCodewords(t *testing.T) {
	// Classic Fibonacci codes: 1 -> 11, 2 -> 011, 3 -> 0011, 4 -> 1011,
	// 5 -> 00011, 6 -> 10011, 7 -> 01011, 8 -> 000011.
	cases := []struct {
		v    uint64
		bits string
	}{
		{1, "11"}, {2, "011"}, {3, "0011"}, {4, "1011"},
		{5, "00011"}, {6, "10011"}, {7, "01011"}, {8, "000011"},
		{12, "101011"},
	}
	for _, c := range cases {
		w := bitio.NewWriter(4)
		if err := Encode(w, c.v); err != nil {
			t.Fatalf("Encode(%d): %v", c.v, err)
		}
		if got := w.BitLen(); got != len(c.bits) {
			t.Errorf("Encode(%d) length = %d bits, want %d", c.v, got, len(c.bits))
		}
		r := bitio.NewReader(w.Bytes())
		var got string
		for range c.bits {
			b, err := r.ReadBit()
			if err != nil {
				t.Fatal(err)
			}
			got += string(rune('0' + b))
		}
		if got != c.bits {
			t.Errorf("Encode(%d) = %s, want %s", c.v, got, c.bits)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	vals := []uint64{1, 2, 3, 4, 5, 10, 100, 1000, 1 << 20, math.MaxUint32, math.MaxUint64}
	w := bitio.NewWriter(256)
	for _, v := range vals {
		if err := Encode(w, v); err != nil {
			t.Fatalf("Encode(%d): %v", v, err)
		}
	}
	r := bitio.NewReader(w.Bytes())
	for _, want := range vals {
		got, err := Decode(r)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		if got != want {
			t.Fatalf("got %d want %d", got, want)
		}
	}
}

func TestEncodeRejectsZero(t *testing.T) {
	w := bitio.NewWriter(1)
	if err := Encode(w, 0); err != ErrValueRange {
		t.Fatalf("Encode(0) = %v, want ErrValueRange", err)
	}
}

func TestLenMatchesEncode(t *testing.T) {
	for v := uint64(1); v < 2000; v++ {
		w := bitio.NewWriter(8)
		if err := Encode(w, v); err != nil {
			t.Fatal(err)
		}
		if got := Len(v); got != w.BitLen() {
			t.Fatalf("Len(%d) = %d, encoded %d bits", v, got, w.BitLen())
		}
	}
	if Len(0) != 0 {
		t.Fatal("Len(0) must be 0")
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(raw []uint64) bool {
		w := bitio.NewWriter(len(raw) * 12)
		vals := make([]uint64, len(raw))
		for i, v := range raw {
			if v == 0 {
				v = 1
			}
			vals[i] = v
			if err := Encode(w, v); err != nil {
				return false
			}
		}
		r := bitio.NewReader(w.Bytes())
		for _, v := range vals {
			got, err := Decode(r)
			if err != nil || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestNoConsecutiveOnesBeforeTerminator(t *testing.T) {
	// Zeckendorf property: within the representation (all bits except the
	// final terminator), no two adjacent ones appear.
	for v := uint64(1); v < 5000; v++ {
		w := bitio.NewWriter(8)
		if err := Encode(w, v); err != nil {
			t.Fatal(err)
		}
		r := bitio.NewReader(w.Bytes())
		n := w.BitLen()
		prev := uint(0)
		for i := 0; i < n-1; i++ { // exclude terminator
			b, err := r.ReadBit()
			if err != nil {
				t.Fatal(err)
			}
			if b == 1 && prev == 1 && i != n-2 {
				t.Fatalf("v=%d: consecutive ones at bit %d", v, i)
			}
			prev = b
		}
	}
}

func BenchmarkEncode(b *testing.B) {
	w := bitio.NewWriter(1 << 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if w.BitLen() > 1<<22 {
			w = bitio.NewWriter(1 << 16)
		}
		Encode(w, uint64(i%4096+1))
	}
}

func BenchmarkDecode(b *testing.B) {
	w := bitio.NewWriter(1 << 16)
	const n = 4096
	for i := 0; i < n; i++ {
		Encode(w, uint64(i+1))
	}
	buf := w.Bytes()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := bitio.NewReader(buf)
		for j := 0; j < n; j++ {
			if _, err := Decode(r); err != nil {
				b.Fatal(err)
			}
		}
	}
}
