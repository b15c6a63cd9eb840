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
	return AppendClean(make([]byte, 0, len(raw)), raw, &st), st
}

// AppendClean is Clean into a caller's buffer: it appends raw's symbol
// codes to dst, adds what it removed to st, and returns the extended
// buffer. dst may share raw's memory when dst ends at or before raw's
// start (dst = raw[:0] cleans in place): each code is written at or
// before the byte it came from, after that byte is read.
func AppendClean(dst, raw []byte, st *CleanStats) []byte {
	for _, b := range raw {
		if c := baseToCode[b]; c != 0xFF {
			dst = append(dst, c)
			st.Kept++
			continue
		}
		if iupacAmbiguity[b] {
			st.Ambiguous++
			continue
		}
		st.Other++
	}
	return dst
}
