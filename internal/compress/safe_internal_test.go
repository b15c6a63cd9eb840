package compress

import (
	"errors"
	"strings"
	"testing"
)

// panicCodec decompresses by crashing — the hostile-stream worst case
// SafeDecompress must contain. It is registered only for the duration of
// the tests below and removed again so the registry the rest of this
// binary's tests enumerate stays the real one.
type panicCodec struct{}

func (panicCodec) Name() string { return "zzpanic" }
func (panicCodec) Compress(src []byte) ([]byte, Stats, error) {
	return append([]byte(nil), src...), Stats{WorkNS: 1, PeakMem: 1}, nil
}
func (c panicCodec) Decompress(data []byte) ([]byte, Stats, error) {
	return c.DecompressTo(nil, data)
}
func (panicCodec) DecompressTo(dst, data []byte) ([]byte, Stats, error) {
	panic("deliberate decoder crash")
}

func withPanicCodec(t *testing.T, f func()) {
	t.Helper()
	Register("zzpanic", func() Codec { return panicCodec{} })
	defer delete(registry, "zzpanic")
	f()
}

// TestSafeDecompressContainsPanic: a panicking decoder behind an
// internally consistent frame must surface as ErrCorrupt, not crash.
func TestSafeDecompressContainsPanic(t *testing.T) {
	withPanicCodec(t, func() {
		src := []byte{0, 1, 2, 3}
		frame := Seal("zzpanic", src, src)
		_, _, err := SafeDecompress("zzpanic", frame, Limits{})
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
		if !strings.Contains(err.Error(), "panicked") {
			t.Errorf("error %q does not name the panic", err)
		}
	})
}

// TestDecompressRecoveringPassesThrough: a clean decode is untouched by the
// containment wrapper.
func TestDecompressRecoveringPassesThrough(t *testing.T) {
	c, err := New("dnapack")
	if err != nil {
		t.Fatal(err)
	}
	src := []byte{3, 2, 1, 0, 3, 2, 1, 0}
	data, _, err := c.Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	out, st, err := decompressRecovering(c, nil, data)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != string(src) || st.WorkNS < 0 {
		t.Fatalf("wrapper altered the decode: %v %v", out, st)
	}
}

// elsewhereCodec is an identity codec whose DecompressTo ignores dst and
// returns a fresh buffer, as a codec outside this repository may.
type elsewhereCodec struct{}

func (elsewhereCodec) Name() string { return "zzelsewhere" }
func (elsewhereCodec) Compress(src []byte) ([]byte, Stats, error) {
	return append([]byte(nil), src...), Stats{WorkNS: 1, PeakMem: 1}, nil
}
func (c elsewhereCodec) Decompress(data []byte) ([]byte, Stats, error) {
	return c.DecompressTo(nil, data)
}
func (elsewhereCodec) DecompressTo(dst, data []byte) ([]byte, Stats, error) {
	return append([]byte(nil), data...), Stats{WorkNS: 1, PeakMem: 1}, nil
}

// TestBlockDecompressPlacesDecodesReturnedElsewhere: a multi-block
// Decompress hands each block its slot of the output; a block a codec
// restored into a buffer of its own must still land in that slot, or the
// output would hold zeros where the checksummed symbols were.
func TestBlockDecompressPlacesDecodesReturnedElsewhere(t *testing.T) {
	Register("zzelsewhere", func() Codec { return elsewhereCodec{} })
	defer delete(registry, "zzelsewhere")
	src := make([]byte, 1000)
	for i := range src {
		src[i] = byte(i*7) & 3
	}
	r, err := OpenBlocks(sealBlocks(t, "zzelsewhere", src, 256), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := r.Decompress()
	if err != nil || string(out) != string(src) {
		t.Fatalf("Decompress: %v, or output differs from the source", err)
	}
	if _, err := r.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}
