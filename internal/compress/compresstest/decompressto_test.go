package compresstest_test

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/srl-nuces/ctxdna/internal/compress"
	"github.com/srl-nuces/ctxdna/internal/compress/compresstest"
	"github.com/srl-nuces/ctxdna/internal/synth"
)

// TestDecompressToAllCodecs holds every registered codec's DecompressTo to
// its Decompress on whole streams, on streams cut short or with a byte
// flipped, and on garbage, into each kind of buffer DecompressToAgrees
// hands it.
func TestDecompressToAllCodecs(t *testing.T) {
	sources := [][]byte{
		{},
		{0, 1, 2, 3},
		bytes.Repeat([]byte{0, 0, 1, 3}, 1500),
		synth.Profile{Length: 20000, GC: 0.4, RepeatProb: 0.02, RepeatMin: 20, RepeatMax: 500, RCFraction: 0.25, MutationRate: 0.01}.Generate(102),
	}
	for _, name := range compress.Names() {
		t.Run(name, func(t *testing.T) {
			c, err := compress.New(name)
			if err != nil {
				t.Fatal(err)
			}
			inputs := [][]byte{{0xff}, bytes.Repeat([]byte{0xA5}, 100)}
			for _, src := range sources {
				stream, _, err := c.Compress(src)
				if err != nil {
					t.Fatal(err)
				}
				flipped := append([]byte(nil), stream...)
				flipped[len(flipped)/2] ^= 0x10
				inputs = append(inputs, stream, stream[:len(stream)/2], flipped)
			}
			for i, in := range inputs {
				t.Run(fmt.Sprint(i), func(t *testing.T) { compresstest.DecompressToAgrees(t, c, in) })
			}
		})
	}
}
