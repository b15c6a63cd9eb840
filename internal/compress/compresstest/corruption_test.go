package compresstest_test

import (
	"testing"

	"github.com/srl-nuces/ctxdna/internal/compress"
	"github.com/srl-nuces/ctxdna/internal/compress/compresstest"
)

// TestCorruptionAllCodecs is the acceptance gate for hardened decompression:
// every registered codec's sealed frames, mutated by truncation, bit flips,
// extension, header tampering and consistent-checksum payload tampering,
// must come back as compress.ErrCorrupt without a panic. The codec imports
// ride on crosscodec_test.go, which links all nine into this binary.
func TestCorruptionAllCodecs(t *testing.T) {
	if names := compress.Names(); len(names) < 9 {
		t.Fatalf("only %d codecs registered: %v", len(names), names)
	}
	forEachCodec(t, compresstest.CorruptionSuite)
}
