package compresstest_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"github.com/srl-nuces/ctxdna/internal/compress"
	"github.com/srl-nuces/ctxdna/internal/synth"
)

// goldenDigests pins, per registered codec, four digests over the golden
// corpus: the compressed payloads, the restored symbols, and the Stats of
// compress and of decompress. A codec change that moves any of them changes
// stored streams or the selector's training data (WorkNS, PeakMem), and must
// update this table in review, on purpose. gzip is left out: its bytes
// belong to the standard library's compress/flate, not to this repository.
var goldenDigests = map[string]goldenDigest{
	"biocompress": {"43e15a7b74ac78c3", "df56c9db8bdb3a96", "d6b6971ea5c565df", "4c2b5c90dbc45f0a"},
	"ctw":         {"cd1889848f67da72", "df56c9db8bdb3a96", "46959e0befe8112d", "81c2f5fb3183c691"},
	"dnacompress": {"16571ecca2fe2c75", "df56c9db8bdb3a96", "0d88ac5afa74c615", "ca30b0aaece99ce3"},
	"dnapack":     {"fa8f4d60e70bc93d", "df56c9db8bdb3a96", "71ed6d3715360f5c", "db36e73ea35c4f54"},
	"dnax":        {"59bdafee4f38171b", "df56c9db8bdb3a96", "8bf516340d4701c5", "adc8b0bf8e4ecbe5"},
	"gencompress": {"8a78bd4ee3cd8f8f", "df56c9db8bdb3a96", "2a11f4d8c8569868", "c3342c7507e5fa88"},
	"twobit":      {"40df1812c0c93690", "df56c9db8bdb3a96", "a78d4439780edd18", "a78d4439780edd18"},
	"xm":          {"61ad2cdd103f42d1", "df56c9db8bdb3a96", "2840180a3998dcfd", "2840180a3998dcfd"},
}

type goldenDigest struct {
	Payload, Restored, CompressStats, DecompressStats string
}

// goldenCorpus is the fixed seeded input set: every size in two profiles —
// sparse exact repeats, and mutated, reverse-complemented repeats over
// local-order structure — plus one periodic sequence.
func goldenCorpus() [][]byte {
	profiles := []synth.Profile{
		{Name: "sparse", GC: 0.45, RepeatProb: 0.0008, RepeatMin: 16, RepeatMax: 200},
		{Name: "mutated", GC: 0.41, RepeatProb: 0.002, RepeatMin: 20, RepeatMax: 400, RCFraction: 0.3, MutationRate: 0.03, LocalOrder: 3, LocalBias: 0.85},
	}
	var corpus [][]byte
	for pi, p := range profiles {
		for _, n := range []int{0, 1, 7, 100, 1536, 11 << 10, 25 << 10, 40 << 10} {
			p.Length = n
			corpus = append(corpus, p.Generate(int64(1000*pi+n)))
		}
	}
	periodic := make([]byte, 6000)
	for i := range periodic {
		periodic[i] = []byte{0, 1, 2, 3, 3, 2, 0, 1, 1}[i%9]
	}
	return append(corpus, periodic)
}

// TestGoldenCodecDigests proves codec changes keep every stream byte and
// every Stats value: each registered codec (but gzip) must reproduce the
// digests recorded in goldenDigests.
func TestGoldenCodecDigests(t *testing.T) {
	corpus := goldenCorpus()
	for _, name := range compress.Names() {
		if name == "gzip" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			want, ok := goldenDigests[name]
			if !ok {
				t.Fatalf("codec %q has no golden digests; record them in goldenDigests", name)
			}
			c, err := compress.New(name)
			if err != nil {
				t.Fatal(err)
			}
			payload, restored, cstats, dstats := sha256.New(), sha256.New(), sha256.New(), sha256.New()
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
			}
			got := goldenDigest{sum(payload), sum(restored), sum(cstats), sum(dstats)}
			if got != want {
				t.Errorf("digests moved:\n got  %#v\n want %#v", got, want)
			}
		})
	}
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

// goldenBlockDigests pins, per repeat-matching codec, one digest over the
// CXB1 containers and Stats that BlockCompress returns for the golden block
// input at Jobs 1, 2 and 4. Block compression builds a fresh codec and so a
// fresh match index per block, the case the pooled index tables serve; the
// digests were recorded before the tables were pooled.
var goldenBlockDigests = map[string]string{
	"biocompress": "83b448e86108df30",
	"dnapack":     "7d9a88132b096e71",
	"dnax":        "c6148b94b440613f",
	"gencompress": "6f5adf525f8aaea3",
}

// TestGoldenBlockDigests proves block containers keep every byte and Stats
// value at any Jobs: three full 64 KiB blocks plus a tail, compressed at
// Jobs 1, 2 and 4, must reproduce the digests in goldenBlockDigests.
func TestGoldenBlockDigests(t *testing.T) {
	const blockSize = 64 << 10
	p := synth.Profile{Name: "mutated", Length: 3*blockSize + 5000, GC: 0.41, RepeatProb: 0.002, RepeatMin: 20, RepeatMax: 400, RCFraction: 0.3, MutationRate: 0.03, LocalOrder: 3, LocalBias: 0.85}
	src := p.Generate(2015)
	for _, name := range []string{"biocompress", "dnapack", "dnax", "gencompress"} {
		t.Run(name, func(t *testing.T) {
			h := sha256.New()
			for _, jobs := range []int{1, 2, 4} {
				container, st, err := compress.BlockCompress(name, src, compress.BlockOptions{BlockSize: blockSize, Jobs: jobs})
				if err != nil {
					t.Fatalf("jobs %d: %v", jobs, err)
				}
				writeFramed(h, container)
				writeStats(h, st)
			}
			if got, want := sum(h), goldenBlockDigests[name]; got != want {
				t.Errorf("block digest moved: got %q, want %q", got, want)
			}
		})
	}
}
