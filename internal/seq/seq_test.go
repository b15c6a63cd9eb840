package seq

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCodeBase(t *testing.T) {
	for _, c := range []struct {
		ascii byte
		code  byte
	}{{'A', A}, {'C', C}, {'G', G}, {'T', T}, {'a', A}, {'c', C}, {'g', G}, {'t', T}} {
		got, err := Code(c.ascii)
		if err != nil {
			t.Fatalf("Code(%q): %v", c.ascii, err)
		}
		if got != c.code {
			t.Errorf("Code(%q) = %d, want %d", c.ascii, got, c.code)
		}
	}
	if _, err := Code('N'); err == nil {
		t.Error("Code('N') should fail")
	}
	if _, err := Code('>'); err == nil {
		t.Error("Code('>') should fail")
	}
	for code := byte(0); code < 4; code++ {
		back, err := Code(Base(code))
		if err != nil || back != code {
			t.Errorf("Base/Code round trip failed for %d", code)
		}
	}
}

func TestComplement(t *testing.T) {
	pairs := map[byte]byte{A: T, T: A, C: G, G: C}
	for c, want := range pairs {
		if got := Complement(c); got != want {
			t.Errorf("Complement(%d) = %d, want %d", c, got, want)
		}
	}
}

func TestEncodeDecode(t *testing.T) {
	in := []byte("ACGTacgtTTGA")
	codes, err := Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{0, 1, 2, 3, 0, 1, 2, 3, 3, 3, 2, 0}
	if !bytes.Equal(codes, want) {
		t.Fatalf("Encode = %v, want %v", codes, want)
	}
	if got := Decode(codes); !bytes.Equal(got, []byte("ACGTACGTTTGA")) {
		t.Fatalf("Decode = %q", got)
	}
}

func TestEncodeRejectsInvalid(t *testing.T) {
	if _, err := Encode([]byte("ACGNX")); err == nil {
		t.Fatal("Encode accepted invalid bases")
	}
}

func TestValid(t *testing.T) {
	if !Valid([]byte{0, 1, 2, 3}) {
		t.Error("Valid rejected legal codes")
	}
	if Valid([]byte{0, 4}) {
		t.Error("Valid accepted code 4")
	}
	if !Valid(nil) {
		t.Error("Valid(nil) should be true")
	}
}

func TestReverseComplement(t *testing.T) {
	in, _ := Encode([]byte("AACGT"))
	got := ReverseComplement(in)
	want, _ := Encode([]byte("ACGTT"))
	if !bytes.Equal(got, want) {
		t.Fatalf("ReverseComplement = %s, want ACGTT", Decode(got))
	}
	// Involution property.
	if !bytes.Equal(ReverseComplement(got), in) {
		t.Fatal("ReverseComplement is not an involution")
	}
}

func TestPackUnpack(t *testing.T) {
	for n := 0; n <= 17; n++ {
		codes := make([]byte, n)
		for i := range codes {
			codes[i] = byte((i * 7) % 4)
		}
		packed := Pack(codes)
		if want := (n + 3) / 4; len(packed) != want {
			t.Fatalf("n=%d: packed length %d, want %d", n, len(packed), want)
		}
		got, err := Unpack(packed, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !bytes.Equal(got, codes) {
			t.Fatalf("n=%d: unpack mismatch", n)
		}
		for off := 0; off <= n; off++ {
			for m := 0; off+m <= n; m++ {
				window := bytes.Repeat([]byte{9}, m)
				UnpackAt(window, packed, off)
				if !bytes.Equal(window, codes[off:off+m]) {
					t.Fatalf("n=%d: UnpackAt window [%d,+%d) mismatch", n, off, m)
				}
			}
		}
	}
}

func TestUnpackShortBuffer(t *testing.T) {
	if _, err := Unpack([]byte{0}, 5); err == nil {
		t.Fatal("Unpack accepted short buffer")
	}
}

func TestGCContent(t *testing.T) {
	s, _ := Encode([]byte("GGCC"))
	if gc := GCContent(s); gc != 1.0 {
		t.Errorf("GCContent(GGCC) = %f", gc)
	}
	s, _ = Encode([]byte("AATT"))
	if gc := GCContent(s); gc != 0.0 {
		t.Errorf("GCContent(AATT) = %f", gc)
	}
	s, _ = Encode([]byte("ACGT"))
	if gc := GCContent(s); gc != 0.5 {
		t.Errorf("GCContent(ACGT) = %f", gc)
	}
	if GCContent(nil) != 0 {
		t.Error("GCContent(nil) should be 0")
	}
}

func TestCounts(t *testing.T) {
	s, _ := Encode([]byte("AACGTTT"))
	n := Counts(s)
	if n != [4]int{2, 1, 1, 3} {
		t.Fatalf("Counts = %v", n)
	}
}

func TestQuickReverseComplementInvolution(t *testing.T) {
	f := func(raw []byte) bool {
		codes := make([]byte, len(raw))
		for i, b := range raw {
			codes[i] = b & 3
		}
		return bytes.Equal(ReverseComplement(ReverseComplement(codes)), codes)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPackUnpack(t *testing.T) {
	f := func(raw []byte) bool {
		codes := make([]byte, len(raw))
		for i, b := range raw {
			codes[i] = b & 3
		}
		got, err := Unpack(Pack(codes), len(codes))
		return err == nil && bytes.Equal(got, codes)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCleanser(t *testing.T) {
	raw := []byte("ACGT nN123\tRYacgt>junk")
	got, st := Clean(raw)
	want, _ := Encode([]byte("ACGTacgt"))
	if !bytes.Equal(got, want) {
		t.Fatalf("Clean = %v, want %v", got, want)
	}
	if st.Kept != 8 {
		t.Errorf("Kept = %d, want 8", st.Kept)
	}
	if st.Ambiguous != 6 { // n N R Y plus 'n' and 'k' inside "junk"
		t.Errorf("Ambiguous = %d, want 6", st.Ambiguous)
	}
	if st.Other != 8 { // space 1 2 3 tab > j u
		t.Errorf("Other = %d, want 8", st.Other)
	}
}

// TestCleanDropsEveryAmbiguityCode: each IUPAC ambiguity letter, in either
// case, is dropped and counted as ambiguous, never kept or counted as other.
func TestCleanDropsEveryAmbiguityCode(t *testing.T) {
	for _, c := range []byte("NRYSWKMBDHVnryswkmbdhv") {
		got, st := Clean([]byte{'A', c, 'T'})
		if string(Decode(got)) != "AT" || st != (CleanStats{Kept: 2, Ambiguous: 1}) {
			t.Errorf("Clean(%q) = %q, %+v; want \"AT\", {Kept:2 Ambiguous:1}", "A"+string(c)+"T", Decode(got), st)
		}
	}
}

// TestCleanAccountsForEveryByte: each byte value lands in exactly one
// CleanStats field, and only ACGT in either case is kept, as its code.
func TestCleanAccountsForEveryByte(t *testing.T) {
	for v := 0; v < 256; v++ {
		b := byte(v)
		got, st := Clean([]byte{b})
		if st.Kept+st.Ambiguous+st.Other != 1 || len(got) != st.Kept {
			t.Fatalf("Clean(%q) = %v, %+v: not one byte accounted once", b, got, st)
		}
		want, err := Encode(bytes.ToUpper([]byte{b}))
		if keep := err == nil; keep != (st.Kept == 1) || (keep && !bytes.Equal(got, want)) {
			t.Fatalf("Clean(%q) = %v, %+v; Encode of its upper case = %v, %v", b, got, st, want, err)
		}
	}
}

// TestQuickInPlace: cleaning a buffer in place (AppendClean into raw[:0])
// gives Clean's codes and stats, and decoding codes in place (DecodeTo into
// codes) gives Decode's text. Half the bytes are made bases.
func TestQuickInPlace(t *testing.T) {
	f := func(raw []byte) bool {
		for i, b := range raw {
			if b&1 == 0 {
				raw[i] = "ACGTacgt"[b>>1&7]
			}
		}
		want, wst := Clean(raw)
		var st CleanStats
		got := AppendClean(raw[:0], raw, &st)
		if !bytes.Equal(got, want) || st != wst {
			return false
		}
		text := Decode(got)
		return bytes.Equal(DecodeTo(got, got), text)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncode(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ascii := make([]byte, 1<<20)
	for i := range ascii {
		ascii[i] = Base(byte(rng.Intn(4)))
	}
	b.SetBytes(int64(len(ascii)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(ascii); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPack(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	codes := make([]byte, 1<<20)
	for i := range codes {
		codes[i] = byte(rng.Intn(4))
	}
	b.SetBytes(int64(len(codes)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Pack(codes)
	}
}
