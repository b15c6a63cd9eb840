package seq

// CleanStats reports what Clean removed.
type CleanStats struct {
	Kept      int // ACGT bases kept
	Ambiguous int // IUPAC ambiguity codes (N, R, Y, ...) dropped
	Other     int // whitespace, digits, punctuation dropped
}

var iupacAmbiguity = func() [256]bool {
	var t [256]bool
	for _, b := range []byte("NRYSWKMBDHVnryswkmbdhv") {
		t[b] = true
	}
	return t
}()

// Clean implements the framework component the paper calls the Cleanser
// (Fig. 7): it strips whitespace, numbering and non-ACGT characters so that
// "single sequence experiments can be carried out smoothly". It converts
// raw sequence text to symbol codes ready for any codec, dropping
// everything outside the ACGT alphabet, and reports what was removed.
func Clean(raw []byte) ([]byte, CleanStats) {
	var st CleanStats
	out := make([]byte, 0, len(raw))
	for _, b := range raw {
		if c := baseToCode[b]; c != 0xFF {
			out = append(out, c)
			st.Kept++
			continue
		}
		if iupacAmbiguity[b] {
			st.Ambiguous++
			continue
		}
		st.Other++
	}
	return out, st
}
