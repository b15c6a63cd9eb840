package compresstest_test

import (
	"fmt"
	"testing"

	"github.com/srl-nuces/ctxdna/internal/compress"
	"github.com/srl-nuces/ctxdna/internal/compress/compresstest"
)

// TestBlockSuiteAllCodecs is the acceptance gate for the block engine:
// round-trip at block boundaries, seek-equivalence under a thousand random
// probes, jobs-count determinism and the block-vs-whole-slice differential
// must hold for every registered codec. The codec imports ride on
// crosscodec_test.go, which links all nine into this binary.
func TestBlockSuiteAllCodecs(t *testing.T) {
	if names := compress.Names(); len(names) < 9 {
		t.Fatalf("only %d codecs registered: %v", len(names), names)
	}
	forEachCodec(t, compresstest.BlockSuite)
}

// TestBlockCorruptionAllCodecs extends the corruption gate to multi-block
// containers: per-block bit flips, index tampering (raw and resealed),
// block reorder with a consistent index, cross-block truncation and
// output-checksum tampering must all surface as compress.ErrCorrupt for
// every registered codec, never as a panic or as wrong symbols.
func TestBlockCorruptionAllCodecs(t *testing.T) {
	forEachCodec(t, compresstest.BlockCorruptionSuite)
}

// forEachCodec runs suite over every registered codec, one subtest each.
func forEachCodec(t *testing.T, suite func(t *testing.T, name string)) {
	t.Helper()
	names := compress.Names()
	if len(names) == 0 {
		t.Fatal("no codecs registered")
	}
	for _, name := range names {
		t.Run(fmt.Sprintf("codec=%s", name), func(t *testing.T) {
			suite(t, name)
		})
	}
}
