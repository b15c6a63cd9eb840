package arith

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestUintModelRoundTrip(t *testing.T) {
	vals := []uint64{0, 1, 2, 3, 7, 8, 100, 1000, 1 << 20, 1<<40 + 12345}
	m := NewUintModel()
	e := NewEncoder(nil, 256)
	for _, v := range vals {
		m.Encode(e, v)
	}
	d := NewDecoder(e.Finish())
	md := NewUintModel()
	for _, want := range vals {
		if got := md.Decode(d); got != want {
			t.Fatalf("got %d want %d", got, want)
		}
	}
}

func TestUintModelAdapts(t *testing.T) {
	// A stream of similar magnitudes must cost fewer bits per value over
	// time than a fresh gamma-style code (~2 log2 v bits).
	rng := rand.New(rand.NewSource(5))
	m := NewUintModel()
	e := NewEncoder(nil, 4096)
	const n = 5000
	for i := 0; i < n; i++ {
		m.Encode(e, uint64(200+rng.Intn(50)))
	}
	out := e.Finish()
	bitsPerVal := float64(len(out)*8) / n
	// Raw gamma for ~230 would be ~15 bits; the adaptive model should be
	// well under 9.
	if bitsPerVal > 9 {
		t.Fatalf("%.2f bits/value, want < 9", bitsPerVal)
	}
}

func TestUintModelQuick(t *testing.T) {
	f := func(vals []uint64) bool {
		for i := range vals {
			vals[i] >>= 2 // keep clear of MaxUint64
		}
		m := NewUintModel()
		e := NewEncoder(nil, len(vals)*10+16)
		for _, v := range vals {
			m.Encode(e, v)
		}
		d := NewDecoder(e.Finish())
		md := NewUintModel()
		for _, v := range vals {
			if md.Decode(d) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestUintModelRejectsMax(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Encode(MaxUint64) did not panic")
		}
	}()
	NewUintModel().Encode(NewEncoder(nil, 16), ^uint64(0))
}
