package ctw

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"testing"

	"github.com/srl-nuces/ctxdna/internal/compress"
	"github.com/srl-nuces/ctxdna/internal/synth"
)

// depthDigests pins, per context depth, five digests over depthCorpus: the
// compressed payloads, the restored symbols, the Stats of compress and of
// decompress, and the exact mixture probabilities (see mixtureDigest). The
// registry's TestGoldenCodecDigests pins DefaultDepth streams only; this
// table holds the tree code to the same streams and the same roundings at
// every depth from the shallowest to maxDepth.
var depthDigests = map[int]depthDigest{
	1:  {"e6c93acb4103ea7a", "2f4d87a44e6b9680", "bc4cc3e3c602cf53", "39cf4e321d37a118", "2551e68f9fe1c6d7"},
	2:  {"ff7c0f07918ad97a", "2f4d87a44e6b9680", "f10cba1059f273ae", "46b689bb353c2efd", "ff7186a534e748a0"},
	4:  {"5f53eb51f67471ed", "2f4d87a44e6b9680", "110560ffd1adeae2", "2c1f6baaba571af0", "1c2a8febbbcb9c46"},
	8:  {"c6a5810678ffd734", "2f4d87a44e6b9680", "9830b229c8ea1ef1", "0d38b47bd55c7047", "9283ff338a348f7b"},
	16: {"5e1728c0dda1f588", "2f4d87a44e6b9680", "9c47a7d5be42d3cb", "eb940fc56e4b4fd1", "dc63c91ca3b11488"},
	30: {"388d4ab18f180263", "2f4d87a44e6b9680", "3d61cb2814f11e9e", "afe7101ea7a64560", "df993efefd1512b1"},
}

type depthDigest struct {
	Payload, Restored, CompressStats, DecompressStats, Mixtures string
}

// depthCorpus is the golden corpus of compresstest's TestGoldenCodecDigests
// (same profiles, same seeds) cut at 11 Ki bases, which keeps depth-30
// arenas small.
func depthCorpus() [][]byte {
	profiles := []synth.Profile{
		{Name: "sparse", GC: 0.45, RepeatProb: 0.0008, RepeatMin: 16, RepeatMax: 200},
		{Name: "mutated", GC: 0.41, RepeatProb: 0.002, RepeatMin: 20, RepeatMax: 400, RCFraction: 0.3, MutationRate: 0.03, LocalOrder: 3, LocalBias: 0.85},
	}
	var corpus [][]byte
	for pi, p := range profiles {
		for _, n := range []int{0, 1, 7, 100, 1536, 11 << 10} {
			p.Length = n
			corpus = append(corpus, p.Generate(int64(1000*pi+n)))
		}
	}
	return corpus
}

// TestGoldenDepthDigests proves tree changes keep every stream byte and
// every Stats value at depths 1 through maxDepth, and that a hostile
// depth-30 frame, whose noise runs out before its claim, is corrupt.
func TestGoldenDepthDigests(t *testing.T) {
	corpus := depthCorpus()
	for _, depth := range []int{1, 2, 4, 8, 16, maxDepth} {
		t.Run(fmt.Sprintf("d%d", depth), func(t *testing.T) {
			c := New(depth)
			payload, restored, cstats, dstats, mixtures := sha256.New(), sha256.New(), sha256.New(), sha256.New(), sha256.New()
			for i, src := range corpus {
				data, cst, err := c.Compress(src)
				if err != nil {
					t.Fatalf("input %d (%d bases): compress: %v", i, len(src), err)
				}
				got, dst, err := c.Decompress(data)
				if err != nil {
					t.Fatalf("input %d (%d bases): decompress: %v", i, len(src), err)
				}
				if !bytes.Equal(got, src) {
					t.Fatalf("input %d (%d bases): round trip mismatch", i, len(src))
				}
				writeFramed(payload, data)
				writeFramed(restored, got)
				writeStats(cstats, cst)
				writeStats(dstats, dst)
				mixtureDigest(mixtures, depth, src)
			}
			got := depthDigest{sum(payload), sum(restored), sum(cstats), sum(dstats), sum(mixtures)}
			if want := depthDigests[depth]; got != want {
				t.Errorf("digests moved:\n got  %#v\n want %#v", got, want)
			}
		})
	}
	t.Run("hostile", func(t *testing.T) {
		if out, _, err := New(DefaultDepth).Decompress(hostileFrame()); !errors.Is(err, compress.ErrCorrupt) {
			t.Errorf("hostile frame: %d bases, err %v, want ErrCorrupt", len(out), err)
		}
	})
}

// mixtureDigest writes to h the float64 bits of every probability predict
// returns while a depth-d pair of trees codes src. A rounding change in
// the mixture or in β's update shows here even where it leaves every
// 16-bit coder probability, and so the stream, unchanged.
func mixtureDigest(h hash.Hash, depth int, src []byte) {
	trees := [2]*tree{newTree(depth, len(src)), newTree(depth, len(src))}
	defer trees[0].release()
	defer trees[1].release()
	var ctx uint32
	mask := uint32(1<<depth) - 1
	var p [8]byte
	for _, sym := range src {
		for shift := 1; shift >= 0; shift-- {
			bit := int(sym >> shift & 1)
			t := trees[1-shift]
			t.descend(ctx)
			binary.LittleEndian.PutUint64(p[:], math.Float64bits(t.predict()))
			h.Write(p[:])
			t.update(bit)
			ctx = (ctx<<1 | uint32(bit)) & mask
		}
	}
}

// hostileFrame is a stream nobody compressed: depth 30 from the header, a
// claim of 3000 bases, and seeded noise the range decoder turns into
// symbols. The noise runs out long before the claim, so the decoder
// grows its depth-30 arenas through all 3000 bases and then finds the
// overrun.
func hostileFrame() []byte {
	frame := []byte{maxDepth}
	frame = binary.AppendUvarint(frame, 3000)
	noise := rand.New(rand.NewSource(30))
	for i := 0; i < 64; i++ {
		frame = append(frame, byte(noise.Intn(256)))
	}
	return frame
}

// writeFramed length-prefixes b so that adjacent inputs cannot trade bytes
// without changing the digest.
func writeFramed(h hash.Hash, b []byte) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
	h.Write(n[:])
	h.Write(b)
}

func writeStats(h hash.Hash, st compress.Stats) {
	fmt.Fprintf(h, "%d/%d;", st.WorkNS, st.PeakMem)
}

func sum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil))[:16] }
