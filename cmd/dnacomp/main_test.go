package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/srl-nuces/ctxdna/internal/compress"
	"github.com/srl-nuces/ctxdna/internal/obs"
	"github.com/srl-nuces/ctxdna/internal/seq"
	"github.com/srl-nuces/ctxdna/internal/synth"
)

func writeTemp(t *testing.T, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRoundTripRawText(t *testing.T) {
	p := synth.Profile{Length: 5000, GC: 0.45, RepeatProb: 0.002, RepeatMin: 20, RepeatMax: 200}
	ascii := p.GenerateASCII(1)
	in := writeTemp(t, "seq.txt", ascii)
	packed := filepath.Join(t.TempDir(), "seq.dnax")
	if err := run("dnax", false, packed, true, 0, "", []string{in}); err != nil {
		t.Fatal(err)
	}
	restored := filepath.Join(t.TempDir(), "restored.txt")
	if err := run("", true, restored, true, 0, "", []string{packed}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(restored)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ascii) {
		t.Fatal("round trip mismatch")
	}
}

func TestRoundTripFASTA(t *testing.T) {
	p := synth.Profile{Length: 3000, GC: 0.4}
	codes := p.Generate(2)
	ascii := seq.Decode(codes)
	fasta := []byte(">test sequence\n")
	for i := 0; i < len(ascii); i += 60 {
		fasta = append(append(fasta, ascii[i:min(i+60, len(ascii))]...), '\n')
	}
	in := writeTemp(t, "seq.fa", fasta)
	packed := filepath.Join(t.TempDir(), "seq.ctw")
	if err := run("ctw", false, packed, true, 0, "", []string{in}); err != nil {
		t.Fatal(err)
	}
	restored := filepath.Join(t.TempDir(), "restored.txt")
	if err := run("", true, restored, true, 0, "", []string{packed}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(restored)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ascii) {
		t.Fatal("FASTA round trip mismatch")
	}
}

// TestFASTAShapesWriteTheSameContainer: a container depends only on the
// bases, so every common shape of a FASTA file writes, as one frame and as
// blocks, the same bytes its bare bases write.
func TestFASTAShapesWriteTheSameContainer(t *testing.T) {
	p := synth.Profile{Length: 1500, GC: 0.45, RepeatProb: 0.003, RepeatMin: 20, RepeatMax: 100}
	bases := p.GenerateASCII(5)
	wrap := func(b []byte, eol string) string {
		var sb strings.Builder
		for i := 0; i < len(b); i += 60 {
			sb.Write(b[i:min(i+60, len(b))])
			sb.WriteString(eol)
		}
		return sb.String()
	}
	const header = ">s GATTACA" // bases in a header must never reach the container
	shapes := []struct{ name, fasta string }{
		{"wrapped", header + "\n" + wrap(bases, "\n")},
		{"CRLF", header + "\r\n" + wrap(bases, "\r\n")},
		{"blank lines", header + "\n\n" + wrap(bases, "\n\n")},
		{"multi-record", header + "\n" + wrap(bases[:700], "\n") + header + "2\n" + wrap(bases[700:], "\n")},
		{"form-feed led", "\f" + header + "\n" + wrap(bases, "\n")},
		{"lowercase", header + "\n" + wrap(bytes.ToLower(bases), "\n")},
	}
	compressFile := func(t *testing.T, in string, blockSize int) []byte {
		t.Helper()
		out := filepath.Join(t.TempDir(), "seq.out")
		if err := run("dnax", false, out, true, blockSize, "", []string{in}); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	bare := writeTemp(t, "seq.txt", bases)
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			in := writeTemp(t, "seq.fa", []byte(sh.fasta))
			for _, blockSize := range []int{0, 512} {
				if !bytes.Equal(compressFile(t, in, blockSize), compressFile(t, bare, blockSize)) {
					t.Errorf("block size %d: container differs from the bare bases' container", blockSize)
				}
			}
		})
	}
}

func TestEveryRegisteredCodecThroughCLI(t *testing.T) {
	p := synth.Profile{Length: 2000, GC: 0.5, RepeatProb: 0.003, RepeatMin: 20, RepeatMax: 100}
	ascii := p.GenerateASCII(3)
	in := writeTemp(t, "seq.txt", ascii)
	for _, name := range compress.Names() {
		packed := filepath.Join(t.TempDir(), "seq."+name)
		if err := run(name, false, packed, true, 0, "", []string{in}); err != nil {
			t.Fatalf("%s: compress: %v", name, err)
		}
		restored := filepath.Join(t.TempDir(), "restored."+name)
		if err := run("", true, restored, true, 0, "", []string{packed}); err != nil {
			t.Fatalf("%s: decompress: %v", name, err)
		}
		got, err := os.ReadFile(restored)
		if err != nil || !bytes.Equal(got, ascii) {
			t.Fatalf("%s: round trip mismatch (%v)", name, err)
		}
	}
}

func TestContainerSelfDescribes(t *testing.T) {
	p := synth.Profile{Length: 1000, GC: 0.5}
	in := writeTemp(t, "seq.txt", p.GenerateASCII(4))
	packed := filepath.Join(t.TempDir(), "seq.bin")
	if err := run("gencompress", false, packed, true, 0, "", []string{in}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(packed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte(compress.FrameMagic)) {
		t.Fatal("container missing armored-frame magic")
	}
	if !bytes.Contains(data[:32], []byte("gencompress")) {
		t.Fatal("container missing codec name")
	}
	fr, err := compress.Open(data)
	if err != nil {
		t.Fatalf("container is not a valid frame: %v", err)
	}
	if fr.Codec != "gencompress" {
		t.Fatalf("frame records codec %q", fr.Codec)
	}
}

// TestDecompressRejectsCorruptedFile: a compressed file with one flipped
// byte must be refused with compress.ErrCorrupt, never silently
// mis-restored.
func TestDecompressRejectsCorruptedFile(t *testing.T) {
	p := synth.Profile{Length: 2000, GC: 0.5}
	in := writeTemp(t, "seq.txt", p.GenerateASCII(5))
	packed := filepath.Join(t.TempDir(), "seq.dnax")
	if err := run("dnax", false, packed, true, 0, "", []string{in}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(packed)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x10
	corrupted := writeTemp(t, "corrupt.dnax", data)
	restored := filepath.Join(t.TempDir(), "restored.txt")
	err = run("", true, restored, true, 0, "", []string{corrupted})
	if err == nil {
		t.Fatal("corrupted container accepted")
	}
	if !errors.Is(err, compress.ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if _, statErr := os.Stat(restored); !os.IsNotExist(statErr) {
		t.Fatalf("output file exists after failed decompress (atomic write violated): %v", statErr)
	}
}

// TestLegacyContainerRefusedClearly: the pre-armor format is named in the
// error so users know to recompress rather than chase a corruption report.
func TestLegacyContainerRefusedClearly(t *testing.T) {
	legacy := append([]byte(legacyMagic), []byte("dnax\nabc")...)
	err := run("", true, "", true, 0, "", []string{writeTemp(t, "old.bin", legacy)})
	if err == nil || !strings.Contains(err.Error(), "legacy") {
		t.Fatalf("legacy container error %v does not say it is legacy", err)
	}
}

// TestValidateFlags: exchange and block knobs outside their domain fail fast.
func TestValidateFlags(t *testing.T) {
	for _, tc := range []struct {
		rate       float64
		retries    int
		blockSize  int
		seek       string
		decompress bool
		ok         bool
	}{
		{0, 0, 0, "", false, true}, {1, 0, 0, "", false, true}, {0.5, 8, 0, "", false, true},
		{-0.1, 0, 0, "", false, false}, {1.01, 0, 0, "", false, false}, {0, -1, 0, "", false, false},
		{0, 0, 4096, "", false, true}, {0, 0, -1, "", false, false},
		{0, 0, 0, "10:20", true, true}, {0, 0, 0, "0:0", true, true},
		{0, 0, 0, "10:20", false, false}, // -seek without -d
		{0, 0, 0, "10", true, false}, {0, 0, 0, "-1:5", true, false},
		{0, 0, 0, "a:b", true, false}, {0, 0, 0, "5:-1", true, false},
	} {
		err := validateFlags(tc.rate, tc.retries, tc.blockSize, tc.seek, tc.decompress, 0, 0)
		if (err == nil) != tc.ok {
			t.Errorf("validateFlags(%v, %d, %d, %q, %v) = %v, want ok=%v",
				tc.rate, tc.retries, tc.blockSize, tc.seek, tc.decompress, err, tc.ok)
		}
	}
}

// TestBlockContainerRoundTripCLI: -block-size writes a CXB1 container that
// -d restores to the original text, and -seek decodes exactly the requested
// window of it, or of a single frame.
func TestBlockContainerRoundTripCLI(t *testing.T) {
	p := synth.Profile{Length: 6000, GC: 0.45, RepeatProb: 0.002, RepeatMin: 20, RepeatMax: 150}
	ascii := p.GenerateASCII(51)
	in := writeTemp(t, "seq.txt", ascii)
	packed := filepath.Join(t.TempDir(), "seq.cxb")
	if err := run("dnax", false, packed, true, 1024, "", []string{in}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(packed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte(compress.BlockMagic)) {
		t.Fatal("-block-size output is not a CXB1 container")
	}
	restored := filepath.Join(t.TempDir(), "restored.txt")
	if err := run("", true, restored, true, 0, "", []string{packed}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(restored)
	if err != nil || !bytes.Equal(got, ascii) {
		t.Fatalf("block container round trip mismatch (%v)", err)
	}
	// -seek spanning a block boundary returns exactly that slice of the text.
	window := filepath.Join(t.TempDir(), "window.txt")
	if err := run("", true, window, true, 0, "900:300", []string{packed}); err != nil {
		t.Fatal(err)
	}
	got, err = os.ReadFile(window)
	if err != nil || !bytes.Equal(got, ascii[900:1200]) {
		t.Fatalf("-seek window mismatch (%v)", err)
	}
	// -seek on a single-frame file reads the frame as its one block.
	single := filepath.Join(t.TempDir(), "seq.dnax")
	if err := run("dnax", false, single, true, 0, "", []string{in}); err != nil {
		t.Fatal(err)
	}
	if err := run("", true, window, true, 0, "0:10", []string{single}); err != nil {
		t.Fatalf("-seek on a single frame: %v", err)
	}
	got, err = os.ReadFile(window)
	if err != nil || !bytes.Equal(got, ascii[0:10]) {
		t.Fatalf("-seek window on a single frame mismatch (%v)", err)
	}
	// Out-of-range seek fails without being a corruption report.
	if err := run("", true, "", true, 0, "5999:100", []string{packed}); err == nil || errors.Is(err, compress.ErrCorrupt) {
		t.Fatalf("out-of-range seek: err = %v", err)
	}
	// A corrupted block container is refused with ErrCorrupt.
	data[len(data)-2] ^= 0x08
	bad := writeTemp(t, "bad.cxb", data)
	if err := run("", true, "", true, 0, "", []string{bad}); !errors.Is(err, compress.ErrCorrupt) {
		t.Fatalf("corrupted block container: err = %v", err)
	}
}

// TestCompressBooksOneCodecCall: a compress, with or without -block-size,
// books one codec compress call into the default registry dnacomp records
// into: the bases in, and out the codec payload bytes, summed over blocks.
func TestCompressBooksOneCodecCall(t *testing.T) {
	const bases = 3000
	in := writeTemp(t, "seq.txt", synth.Profile{Length: bases, GC: 0.5}.GenerateASCII(53))
	series := []string{"dna_codec_calls_total", "dna_codec_in_bytes_total", "dna_codec_out_bytes_total"}
	for _, blockSize := range []int{0, 512} {
		var before [3]uint64
		for i, name := range series {
			before[i] = obs.Default().Counter(name, "", "codec", "dnax", "op", "compress").Value()
		}
		packed := filepath.Join(t.TempDir(), "seq.dnax")
		if err := run("dnax", false, packed, true, blockSize, "", []string{in}); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(packed)
		if err != nil {
			t.Fatal(err)
		}
		r, err := compress.OpenBlocks(data, compress.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		payload := 0
		for k := range r.Blocks() {
			payload += len(r.Frame(k)) - compress.Overhead("dnax")
		}
		for i, want := range []int{1, bases, payload} {
			if got := obs.Default().Counter(series[i], "", "codec", "dnax", "op", "compress").Value() - before[i]; got != uint64(want) {
				t.Errorf("-block-size %d: %s{op=compress} grew by %d, want %d", blockSize, series[i], got, want)
			}
		}
	}
}

// TestExchangeModeBlocks: the block-mode exchange loop round-trips through
// clean and fault-injected stores from the CLI.
func TestExchangeModeBlocks(t *testing.T) {
	p := synth.Profile{Length: 3000, GC: 0.5}
	in := writeTemp(t, "seq.txt", p.GenerateASCII(52))
	if err := runExchange(context.Background(), "dnax", 0, 8, 2015, 512, 0, 0, true, []string{in}); err != nil {
		t.Fatalf("clean block exchange: %v", err)
	}
	if err := runExchange(context.Background(), "dnax", 0.3, 8, 2015, 512, 0, 0, true, []string{in}); err != nil {
		t.Fatalf("faulty block exchange at 30%%: %v", err)
	}
}

// TestAtomicWriteFile: the write lands complete under the final name, the
// temp file is gone, and a failed write leaves the previous content intact.
func TestAtomicWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.bin")
	if err := atomicWriteFile(path, []byte("first"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "first" {
		t.Fatalf("content %q", got)
	}
	if err := atomicWriteFile(path, []byte("second"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "second" {
		t.Fatalf("overwrite content %q", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "out.bin" {
		t.Fatalf("stray temp files left behind: %v", entries)
	}
}

// TestBatchCompress: batch mode writes one container per input, each of
// which decompresses back to the cleansed input, and duplicate content is
// served from the shared cache.
func TestBatchCompress(t *testing.T) {
	p := synth.Profile{Length: 4000, GC: 0.45, RepeatProb: 0.002, RepeatMin: 20, RepeatMax: 200}
	ascii := p.GenerateASCII(21)
	other := synth.Profile{Length: 2500, GC: 0.55}.GenerateASCII(22)
	in1 := writeTemp(t, "a.txt", ascii)
	in2 := writeTemp(t, "b.txt", other)
	in3 := writeTemp(t, "dup.txt", ascii) // same content as a.txt -> cache hit
	outDir := t.TempDir()

	if err := runBatch("dnax", false, outDir, true, 2, []string{in1, in2, in3}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		in   string
		want []byte
	}{
		{in1, ascii}, {in2, other}, {in3, ascii},
	} {
		packed := filepath.Join(outDir, filepath.Base(tc.in)+".dnax")
		restored := filepath.Join(t.TempDir(), "restored.txt")
		if err := run("", true, restored, true, 0, "", []string{packed}); err != nil {
			t.Fatalf("%s: decompress: %v", packed, err)
		}
		got, err := os.ReadFile(restored)
		if err != nil || !bytes.Equal(got, tc.want) {
			t.Fatalf("%s: batch round trip mismatch (%v)", tc.in, err)
		}
	}
}

// TestBatchWithoutOutputDir writes containers beside the inputs.
func TestBatchWithoutOutputDir(t *testing.T) {
	in := writeTemp(t, "seq.txt", []byte("ACGTACGTACGTACGT"))
	if err := runBatch("twobit", false, "", true, 1, []string{in}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(in + ".twobit"); err != nil {
		t.Fatalf("container not written beside input: %v", err)
	}
}

// TestBatchErrors: failures are aggregated per input and name the file;
// good inputs in the same batch still produce output.
func TestBatchErrors(t *testing.T) {
	good := writeTemp(t, "good.txt", []byte("ACGTACGTACGT"))
	missing := filepath.Join(t.TempDir(), "missing.txt")
	empty := writeTemp(t, "numbers.txt", []byte("123456"))
	outDir := t.TempDir()

	err := runBatch("dnax", false, outDir, true, 4, []string{good, missing, empty})
	if err == nil {
		t.Fatal("batch with bad inputs reported success")
	}
	if msg := err.Error(); !strings.Contains(msg, "missing.txt") || !strings.Contains(msg, "numbers.txt") {
		t.Errorf("aggregated error %q does not name the failing files", msg)
	}
	if !strings.Contains(err.Error(), "2 of 3") {
		t.Errorf("aggregated error %q does not count failures", err.Error())
	}
	if _, statErr := os.Stat(filepath.Join(outDir, "good.txt.dnax")); statErr != nil {
		t.Errorf("good input skipped when siblings failed: %v", statErr)
	}

	if err := runBatch("dnax", true, outDir, true, 1, []string{good}); err == nil {
		t.Error("batch decompress accepted")
	}
	if err := runBatch("dnax", false, outDir, true, 1, nil); err == nil {
		t.Error("empty batch accepted")
	}
	if err := runBatch("nope", false, outDir, true, 1, []string{good}); err == nil {
		t.Error("unknown codec accepted in batch mode")
	}
}

func TestErrors(t *testing.T) {
	if err := run("nope", false, "", true, 0, "", []string{writeTemp(t, "x.txt", []byte("ACGT"))}); err == nil || !strings.Contains(err.Error(), "unknown codec") {
		t.Errorf("unknown codec: err = %v", err)
	}
	if err := run("dnax", false, "", true, 0, "", []string{writeTemp(t, "x.txt", []byte("12345"))}); err == nil {
		t.Error("no-ACGT input accepted")
	}
	if err := run("", true, "", true, 0, "", []string{writeTemp(t, "x.bin", []byte("garbage"))}); err == nil {
		t.Error("garbage container accepted")
	}
	if err := run("dnax", false, "", true, 0, "", []string{filepath.Join(t.TempDir(), "missing.txt")}); err == nil {
		t.Error("missing input accepted")
	}
	truncated := []byte(compress.FrameMagic + "\x01") // magic but nothing else
	if err := run("", true, "", true, 0, "", []string{writeTemp(t, "t.bin", truncated)}); err == nil {
		t.Error("truncated header accepted")
	}
}

// TestExchangeMode: the exchange loop round-trips through a clean store and
// through a 30 % fault-injected store, and rejects bad input up front.
func TestExchangeMode(t *testing.T) {
	p := synth.Profile{Length: 3000, GC: 0.5, RepeatProb: 0.002, RepeatMin: 20, RepeatMax: 100}
	in := writeTemp(t, "seq.txt", p.GenerateASCII(31))
	if err := runExchange(context.Background(), "dnax", 0, 8, 2015, 0, 0, 0, true, []string{in}); err != nil {
		t.Fatalf("clean exchange: %v", err)
	}
	if err := runExchange(context.Background(), "dnax", 0.3, 8, 2015, 0, 0, 0, true, []string{in}); err != nil {
		t.Fatalf("faulty exchange at 30%%: %v", err)
	}
	if err := runExchange(context.Background(), "nope", 0, 8, 2015, 0, 0, 0, true, []string{in}); err == nil {
		t.Error("unknown codec accepted in exchange mode")
	}
	if err := runExchange(context.Background(), "dnax", 0, 8, 2015, 0, 0, 0, true, []string{writeTemp(t, "n.txt", []byte("123"))}); err == nil {
		t.Error("no-ACGT input accepted in exchange mode")
	}
	// A retry budget of zero against a certain first-attempt fault fails.
	if err := runExchange(context.Background(), "dnax", 1, 0, 2015, 0, 0, 0, true, []string{in}); err == nil {
		t.Error("always-failing store with no retries reported success")
	}
}

// TestExchangeModeFleet: -fleet routes the exchange through a replicated
// shard fleet; per-shard transient faults fail over instead of failing the
// loop, in both single-frame and block mode.
func TestExchangeModeFleet(t *testing.T) {
	p := synth.Profile{Length: 3000, GC: 0.5, RepeatProb: 0.002, RepeatMin: 20, RepeatMax: 100}
	in := writeTemp(t, "seq.txt", p.GenerateASCII(32))
	if err := runExchange(context.Background(), "dnax", 0, 8, 2015, 0, 5, 3, true, []string{in}); err != nil {
		t.Fatalf("clean fleet exchange: %v", err)
	}
	if err := runExchange(context.Background(), "dnax", 0.2, 8, 2015, 0, 5, 3, true, []string{in}); err != nil {
		t.Fatalf("faulty fleet exchange at 20%%: %v", err)
	}
	if err := runExchange(context.Background(), "dnax", 0.2, 8, 2015, 512, 5, 3, true, []string{in}); err != nil {
		t.Fatalf("faulty fleet block exchange at 20%%: %v", err)
	}
}

// TestValidateFleetFlags: fleet knobs outside their domain fail fast.
func TestValidateFleetFlags(t *testing.T) {
	for _, tc := range []struct {
		rate        float64
		fleet, repl int
		ok          bool
	}{
		{0, 0, 0, true}, {0, 5, 0, true}, {0, 5, 3, true}, {0.5, 5, 3, true},
		{0, -1, 0, false}, // negative shard count
		{0, 5, -1, false}, // negative replication
		{0, 0, 3, false},  // replication without a fleet
		{0, 3, 5, false},  // more replicas than shards
		{1, 5, 3, false},  // certain per-shard failure: every op would exhaust retries
		{1, 0, 0, true},   // rate 1 stays legal for the single FaultyStore path
	} {
		err := validateFlags(tc.rate, 8, 0, "", false, tc.fleet, tc.repl)
		if (err == nil) != tc.ok {
			t.Errorf("validateFlags(rate=%v, fleet=%d, repl=%d) = %v, want ok=%v",
				tc.rate, tc.fleet, tc.repl, err, tc.ok)
		}
	}
}

// TestObservabilityExports: compressing, decompressing and exchanging feed
// the default registry, and exportObservability writes well-formed metrics
// and trace snapshots from it. The one-frame exchange and a -block-size
// exchange run the same pipeline: each books one more dna_exchange_total
// and opens a cloud.exchange span.
func TestObservabilityExports(t *testing.T) {
	dir := t.TempDir()
	p := synth.Profile{Length: 2000, GC: 0.5}
	in := writeTemp(t, "seq.txt", p.GenerateASCII(41))
	packed := filepath.Join(dir, "seq.dnax")
	restored := filepath.Join(dir, "seq.out")
	if err := run("dnax", false, packed, true, 0, "", []string{in}); err != nil {
		t.Fatal(err)
	}
	if err := run("", true, restored, true, 0, "", []string{packed}); err != nil {
		t.Fatal(err)
	}

	metrics := filepath.Join(dir, "metrics.prom")
	trace := filepath.Join(dir, "trace.json")
	var exchanged float64
	for _, blockSize := range []int{0, 512} {
		tracer := obs.NewTracer(obs.System())
		ctx := obs.WithTracer(context.Background(), tracer)
		if err := runExchange(ctx, "dnax", 0, 8, 2015, blockSize, 0, 0, true, []string{in}); err != nil {
			t.Fatal(err)
		}
		if err := exportObservability(metrics, trace, tracer); err != nil {
			t.Fatal(err)
		}
		prom, err := os.ReadFile(metrics)
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{
			`dna_codec_calls_total{codec="dnax",op="compress"}`,
			`dna_codec_calls_total{codec="dnax",op="decompress"}`,
			"dna_exchange_total",
		} {
			if !strings.Contains(string(prom), want) {
				t.Errorf("block size %d: metrics snapshot missing %q", blockSize, want)
			}
		}
		ok := promValue(string(prom), `dna_exchange_total{outcome="ok"}`)
		if ok <= exchanged {
			t.Errorf("block size %d: dna_exchange_total{outcome=\"ok\"} = %v, did not grow past %v", blockSize, ok, exchanged)
		}
		exchanged = ok
		raw, err := os.ReadFile(trace)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Spans []obs.SpanRecord `json:"spans"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("trace not valid JSON: %v", err)
		}
		found := false
		for _, s := range doc.Spans {
			if s.Name == "cloud.exchange" {
				found = true
			}
		}
		if !found {
			t.Fatalf("block size %d: trace missing cloud.exchange span: %+v", blockSize, doc.Spans)
		}
	}
	// Exporting nothing is a no-op, not an error.
	if err := exportObservability("", "", nil); err != nil {
		t.Fatal(err)
	}
}

// promValue reads one series' value from a Prometheus text snapshot; a
// missing series reads as 0.
func promValue(prom, series string) float64 {
	for _, line := range strings.Split(prom, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, _ := strconv.ParseFloat(v, 64)
			return f
		}
	}
	return 0
}
