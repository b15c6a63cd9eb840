package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/srl-nuces/ctxdna/internal/cloud"
	"github.com/srl-nuces/ctxdna/internal/compress"
	"github.com/srl-nuces/ctxdna/internal/core"
	"github.com/srl-nuces/ctxdna/internal/experiment"
	"github.com/srl-nuces/ctxdna/internal/obs"
	"github.com/srl-nuces/ctxdna/internal/seq"
	"github.com/srl-nuces/ctxdna/internal/synth"

	_ "github.com/srl-nuces/ctxdna/internal/compress/gzipx"
	_ "github.com/srl-nuces/ctxdna/internal/compress/twobit"
)

// testEngine trains one small selection model for the whole test binary:
// the same TrainEngine path cmd/dnacompd falls back to, shrunk to a
// six-file corpus over the two cheapest codecs.
var (
	engineOnce sync.Once
	engine     *core.InferenceEngine
	engineErr  error
)

func testEngine(t *testing.T) *core.InferenceEngine {
	t.Helper()
	engineOnce.Do(func() {
		files := synth.ExperimentCorpus(synth.CorpusSpec{NumFiles: 6, MinSize: 2 << 10, MaxSize: 16 << 10, Seed: 7})
		g, err := experiment.Run(files, cloud.Grid(), []string{"gzip", "twobit"}, experiment.DefaultNoise())
		if err != nil {
			engineErr = err
			return
		}
		engine, engineErr = TrainEngine(g, experiment.MethodCART)
	})
	if engineErr != nil {
		t.Fatalf("training test engine: %v", engineErr)
	}
	return engine
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Engine == nil {
		cfg.Engine = testEngine(t)
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close() // drains in-flight handlers first...
		s.Close()  // ...so closing the queue cannot race an enqueue
	})
	return s, ts
}

func post(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func synthASCII(n int, seed int64) []byte {
	return synth.Profile{Length: n, GC: 0.42, RepeatProb: 0.004, RepeatMin: 16, RepeatMax: 64}.GenerateASCII(seed)
}

// TestCompressRoundTripE2E is the issue's end-to-end criterion: POST a
// synthetic sequence with a declared context, check the daemon's codec
// choice matches the offline engine's answer for the same context, and
// check the returned frame restores the input byte-for-byte.
func TestCompressRoundTripE2E(t *testing.T) {
	eng := testEngine(t)
	_, ts := newTestServer(t, Config{})

	input := synthASCII(6000, 42)
	declared := core.Context{RAMMB: 2048, CPUMHz: 2100, BandwidthMbps: 5}

	resp, frame := post(t, fmt.Sprintf("%s/compress?ram_mb=%g&cpu_mhz=%g&bw_mbps=%g",
		ts.URL, declared.RAMMB, declared.CPUMHz, declared.BandwidthMbps), input)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compress: HTTP %d: %s", resp.StatusCode, frame)
	}

	// Offline answer for the same features the daemon derives.
	offline := declared
	offline.FileSizeKB = float64(len(input)) / 1024
	if want, got := eng.SelectCodec(offline), resp.Header.Get("X-Dnacomp-Codec"); got != want {
		t.Errorf("daemon chose %q, offline engine chose %q", got, want)
	}
	if src := resp.Header.Get("X-Dnacomp-Source"); src != "tree" {
		t.Errorf("X-Dnacomp-Source = %q, want tree", src)
	}

	resp, restored := post(t, ts.URL+"/decompress", frame)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decompress: HTTP %d: %s", resp.StatusCode, restored)
	}
	if !bytes.Equal(restored, input) {
		t.Fatalf("round trip not byte-identical: %d bases in, %d out", len(input), len(restored))
	}
}

// TestRangeGetEqualsFullDecodeSlice: a range read must equal the same
// slice of the full decode and echo its window in X-Dnacomp-Range, whether
// the container is a stored CXB1, a stored CXA1 frame or a POSTed frame.
func TestRangeGetEqualsFullDecodeSlice(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	input := synthASCII(5000, 99)
	resp, container := post(t, ts.URL+"/compress?block_size=512&name=rt", input)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compress: HTTP %d: %s", resp.StatusCode, container)
	}
	if resp.Header.Get("X-Dnacomp-Blocks") == "" {
		t.Error("block-mode response missing X-Dnacomp-Blocks")
	}
	resp, frame := post(t, ts.URL+"/compress?name=rt1", input)
	if resp.StatusCode != http.StatusOK || !bytes.HasPrefix(frame, []byte(compress.FrameMagic)) {
		t.Fatalf("compress without block_size: HTTP %d, want a CXA1 frame", resp.StatusCode)
	}

	resp, full := post(t, ts.URL+"/decompress", container)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("full decompress: HTTP %d: %s", resp.StatusCode, full)
	}
	if !bytes.Equal(full, input) {
		t.Fatal("full decode differs from input")
	}

	sources := []struct {
		name string
		read func(query string) (*http.Response, []byte)
	}{
		{"stored CXB1", func(q string) (*http.Response, []byte) { return get(t, ts.URL+"/decompress?name=rt&"+q) }},
		{"stored CXA1", func(q string) (*http.Response, []byte) { return get(t, ts.URL+"/decompress?name=rt1&"+q) }},
		{"posted CXA1", func(q string) (*http.Response, []byte) { return post(t, ts.URL+"/decompress?"+q, frame) }},
	}
	for _, src := range sources {
		for _, w := range []struct {
			query  string
			off, n int
		}{
			{"off=0&len=100", 0, 100},
			{"off=511&len=2", 511, 2}, // across a block boundary
			{"off=1234&len=999", 1234, 999},
			{"off=4990&len=10", 4990, 10},
			{"off=4000", 4000, 1000}, // open-ended: off only reads to the end
		} {
			resp, window := src.read(w.query)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: range %s: HTTP %d: %s", src.name, w.query, resp.StatusCode, window)
			}
			if want := full[w.off : w.off+w.n]; !bytes.Equal(window, want) {
				t.Errorf("%s: range %s differs from the same slice of the full decode", src.name, w.query)
			}
			if got, want := resp.Header.Get("X-Dnacomp-Range"), fmt.Sprintf("%d:%d", w.off, w.n); got != want {
				t.Errorf("%s: range %s: X-Dnacomp-Range = %q, want %q", src.name, w.query, got, want)
			}
		}
	}
}

// TestDecodesCountInServerRegistry: with Config.Registry set, every
// upload, block_size or one frame, books one codec compress call there,
// with its bases in and its codec payload bytes out; a whole restore of a
// 4-block CXB1 books its four block decodes there, and every request that
// reaches a decode — whole or range — books one codec decompress call.
func TestDecodesCountInServerRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, Config{Registry: reg})
	resp, container := post(t, ts.URL+"/compress?codec=twobit&block_size=500", synthASCII(2000, 17))
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Dnacomp-Blocks") != "4" {
		t.Fatalf("compress: HTTP %d, %s blocks, want 4", resp.StatusCode, resp.Header.Get("X-Dnacomp-Blocks"))
	}
	booked := [3]int{1, 2000, payloadBytes(t, container)}
	checkCompressBooked(t, reg, "twobit", booked)
	resp, frame := post(t, ts.URL+"/compress?codec=twobit", synthASCII(1000, 18))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("one-frame compress: HTTP %d: %s", resp.StatusCode, frame)
	}
	checkCompressBooked(t, reg, "twobit", [3]int{2, 3000, booked[2] + payloadBytes(t, frame)})
	if resp, body := post(t, ts.URL+"/decompress", container); resp.StatusCode != http.StatusOK {
		t.Fatalf("decompress: HTTP %d: %s", resp.StatusCode, body)
	}
	decoded := reg.Counter("dna_block_decoded_total", "", "codec", "twobit")
	calls := reg.Counter("dna_codec_calls_total", "", "codec", "twobit", "op", "decompress")
	if got := decoded.Value(); got != 4 {
		t.Errorf("dna_block_decoded_total = %d after a whole restore, want 4", got)
	}
	if resp, body := post(t, ts.URL+"/decompress?off=600&len=10", container); resp.StatusCode != http.StatusOK {
		t.Fatalf("range decompress: HTTP %d: %s", resp.StatusCode, body)
	}
	if got := decoded.Value(); got != 5 {
		t.Errorf("dna_block_decoded_total = %d after a one-block range, want 5", got)
	}
	if got := calls.Value(); got != 2 {
		t.Errorf("dna_codec_calls_total{op=decompress} = %d after a whole restore and a range, want 2", got)
	}
}

// payloadBytes sums the codec payload bytes of a sealed frame or
// container's blocks: what its compress books as out bytes.
func payloadBytes(t *testing.T, sealed []byte) int {
	t.Helper()
	r, err := compress.OpenBlocks(sealed, compress.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for k := range r.Blocks() {
		n += len(r.Frame(k)) - compress.Overhead(r.Codec())
	}
	return n
}

// checkCompressBooked checks reg's codec compress calls, bases in and
// payload bytes out, in that order.
func checkCompressBooked(t *testing.T, reg *obs.Registry, codec string, want [3]int) {
	t.Helper()
	for i, series := range []string{"dna_codec_calls_total", "dna_codec_in_bytes_total", "dna_codec_out_bytes_total"} {
		if got := reg.Counter(series, "", "codec", codec, "op", "compress").Value(); got != uint64(want[i]) {
			t.Errorf("%s{op=compress} = %d, want %d", series, got, want[i])
		}
	}
}

// TestCompressHugeBlockSize: a block_size past the body, up to MaxInt,
// answers one block that restores. Counting blocks as (n+bs-1)/bs
// overflows there: at MaxInt the daemon answered a container of no blocks,
// which /decompress refused, and at MaxInt-50 a worker panicked, which
// ended the process.
func TestCompressHugeBlockSize(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	input := synthASCII(100, 5)
	for _, bs := range []int{math.MaxInt, math.MaxInt - 50} {
		resp, container := post(t, fmt.Sprintf("%s/compress?codec=twobit&block_size=%d", ts.URL, bs), input)
		if blocks := resp.Header.Get("X-Dnacomp-Blocks"); resp.StatusCode != http.StatusOK || blocks != "1" {
			t.Fatalf("block_size=%d: HTTP %d with X-Dnacomp-Blocks %q, want 200 with 1: %s", bs, resp.StatusCode, blocks, container)
		}
		resp, restored := post(t, ts.URL+"/decompress", container)
		if resp.StatusCode != http.StatusOK || !bytes.Equal(restored, input) {
			t.Fatalf("block_size=%d: decompress: HTTP %d, %d bytes, want the %d posted", bs, resp.StatusCode, len(restored), len(input))
		}
	}
}

// codecExposition renders reg's dna_codec_* families in the exposition format.
func codecExposition(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var all, codec bytes.Buffer
	if err := reg.WritePrometheus(&all); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.SplitAfter(all.String(), "\n") {
		if strings.HasPrefix(line, "dna_codec_") {
			codec.WriteString(line)
		}
	}
	return codec.String()
}

// TestRangeGetCacheWarmEqualsCold: GET reads of a stored container answer
// the same bodies and headers with the block cache cold and warm; the warm
// pass decodes no block and books cache hits. A twin daemon decoding the
// same reads from POSTed bodies, which bypass the cache, ends with the same
// dna_codec_* series.
func TestRangeGetCacheWarmEqualsCold(t *testing.T) {
	reg, twinReg := obs.NewRegistry(), obs.NewRegistry()
	_, ts := newTestServer(t, Config{Registry: reg})
	_, twin := newTestServer(t, Config{Registry: twinReg})
	input := synthASCII(5000, 31)
	resp, container := post(t, ts.URL+"/compress?codec=twobit&block_size=512&name=hot", input)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compress: HTTP %d: %s", resp.StatusCode, container)
	}
	if resp, body := post(t, twin.URL+"/compress?codec=twobit&block_size=512", input); !bytes.Equal(body, container) {
		t.Fatalf("twin compress: HTTP %d, a different container", resp.StatusCode)
	}
	decoded := reg.Counter("dna_block_decoded_total", "", "codec", "twobit")
	hits := reg.Counter("dna_block_cache_hits_total", "", "codec", "twobit")
	queries := []struct {
		q      string
		off, n int
	}{{"off=0&len=100", 0, 100}, {"off=511&len=2", 511, 2}, {"off=1234&len=999", 1234, 999}, {"off=4000", 4000, 1000}, {"", 0, 5000}}
	cold := make([]http.Header, len(queries))
	for pass := 0; pass < 2; pass++ {
		decodedBefore, hitsBefore := decoded.Value(), hits.Value()
		for i, w := range queries {
			resp, body := get(t, ts.URL+"/decompress?name=hot&"+w.q)
			if resp.StatusCode != http.StatusOK || !bytes.Equal(body, input[w.off:w.off+w.n]) {
				t.Fatalf("pass %d: GET %q: HTTP %d, body is not the stored window", pass, w.q, resp.StatusCode)
			}
			post(t, twin.URL+"/decompress?"+w.q, container)
			resp.Header.Del("Date")
			if pass == 0 {
				cold[i] = resp.Header
			} else if fmt.Sprint(resp.Header) != fmt.Sprint(cold[i]) {
				t.Errorf("GET %q: warm headers %v, cold %v", w.q, resp.Header, cold[i])
			}
		}
		if pass == 1 {
			if d := decoded.Value() - decodedBefore; d != 0 {
				t.Errorf("warm pass added %d to dna_block_decoded_total, want 0", d)
			}
			if hits.Value() == hitsBefore {
				t.Error("warm pass added no dna_block_cache_hits_total")
			}
		}
	}
	if got, want := codecExposition(t, reg), codecExposition(t, twinReg); got != want {
		t.Errorf("dna_codec_* series with the cache:\n%s\nwithout:\n%s", got, want)
	}
}

// TestRangeGetAfterOverwrite: once a stored name is overwritten with other
// bases, a range read returns the new bases although the old blocks are
// still cached.
func TestRangeGetAfterOverwrite(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, input := range [][]byte{synthASCII(3000, 41), synthASCII(3000, 42)} {
		if resp, body := post(t, ts.URL+"/compress?codec=twobit&block_size=512&name=doc", input); resp.StatusCode != http.StatusOK {
			t.Fatalf("compress: HTTP %d: %s", resp.StatusCode, body)
		}
		for i := 0; i < 2; i++ {
			resp, window := get(t, ts.URL+"/decompress?name=doc&off=1000&len=700")
			if resp.StatusCode != http.StatusOK || !bytes.Equal(window, input[1000:1700]) {
				t.Fatalf("read %d: HTTP %d, window is not the stored bases", i, resp.StatusCode)
			}
		}
	}
}

// TestForcedCodec: ?codec= bypasses the tree and is reported as such.
func TestForcedCodec(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	input := synthASCII(1200, 3)

	resp, frame := post(t, ts.URL+"/compress?codec=twobit", input)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, frame)
	}
	if c := resp.Header.Get("X-Dnacomp-Codec"); c != "twobit" {
		t.Errorf("codec = %q, want twobit", c)
	}
	if src := resp.Header.Get("X-Dnacomp-Source"); src != "request" {
		t.Errorf("source = %q, want request", src)
	}
	resp, restored := post(t, ts.URL+"/decompress", frame)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(restored, input) {
		t.Fatalf("forced-codec round trip failed: HTTP %d", resp.StatusCode)
	}
}

// TestDeterministicResponses: identical requests produce byte-identical
// containers — the purity contract of the handlers.
func TestDeterministicResponses(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	input := synthASCII(3000, 8)
	_, first := post(t, ts.URL+"/compress?codec=gzip", input)
	_, second := post(t, ts.URL+"/compress?codec=gzip", input)
	if !bytes.Equal(first, second) {
		t.Fatal("same request produced different container bytes")
	}
}

// TestFASTAInput: the daemon cleanses FASTA bodies like the CLI does.
func TestFASTAInput(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	fasta := []byte(">chr1 test\nACGTAC\nGTACGT\n>chr2\nTTTTAAAA\n")
	resp, frame := post(t, ts.URL+"/compress?codec=twobit", fasta)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, frame)
	}
	resp, restored := post(t, ts.URL+"/decompress", frame)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, restored)
	}
	if got, want := string(restored), "ACGTACGTACGTTTTTAAAA"; got != want {
		t.Fatalf("FASTA round trip = %q, want %q", got, want)
	}
}

// cleanseCase is one Cleanse input with the bases and stats it must give.
type cleanseCase struct {
	name, in, want string
	st             seq.CleanStats
}

// cleanseCases pins Cleanse on FASTA and raw bodies: whatever whitespace
// bytes.TrimSpace trims may lead a FASTA body without its header letters
// turning into bases; every record's lines are cleaned, blank lines
// skipped, and no line is too long; the space trimmed off a line is not
// counted, what stays inside it is; raw base text is cleansed whole, a '>'
// inside it included. FuzzCleanse seeds from the inputs.
func cleanseCases() []cleanseCase {
	const fasta = ">GATTACA\nACGT\n"
	longSeq := strings.Repeat("T", 16<<20+8)
	return []cleanseCase{
		{"fasta", fasta, "ACGT", seq.CleanStats{Kept: 4}},
		{"fasta after form feed", "\f" + fasta, "ACGT", seq.CleanStats{Kept: 4}},
		{"fasta after vertical tab", "\v" + fasta, "ACGT", seq.CleanStats{Kept: 4}},
		{"fasta after no-break space", "\u00a0" + fasta, "ACGT", seq.CleanStats{Kept: 4}},
		{"fasta after blank lines", "\n\n" + fasta, "ACGT", seq.CleanStats{Kept: 4}},
		{"indented header", " >a GATTACA\nACGT\n", "ACGT", seq.CleanStats{Kept: 4}},
		{"fasta with CRLF", ">a\r\nAC\r\nGT\r\n", "ACGT", seq.CleanStats{Kept: 4}},
		{"wrapped fasta", ">s\nACGTACGT\nTTGG\nCCAA\n", "ACGTACGTTTGGCCAA", seq.CleanStats{Kept: 16}},
		{"lowercase fasta", ">a\nacgt\n", "ACGT", seq.CleanStats{Kept: 4}},
		{"multi-record with blank lines", ">a\nACGTN\n\n>b\nGG TT\n", "ACGTGGTT", seq.CleanStats{Kept: 8, Ambiguous: 1, Other: 1}},
		{"header lines back to back", ">a\n>b\nAC\n>c\n\n>d\nGT", "ACGT", seq.CleanStats{Kept: 4}},
		{"ambiguity codes in fasta", ">a\nACNNRYGT\n", "ACGT", seq.CleanStats{Kept: 4, Ambiguous: 4}},
		{"ambiguity letters in a header", ">NNRY\nACGT\n", "ACGT", seq.CleanStats{Kept: 4}},
		{"digits and tabs inside a line", ">a\n1 ACG\tT 10\n", "ACGT", seq.CleanStats{Kept: 4, Other: 6}},
		{"padded sequence lines", ">a\n  AC  \n\tGT\t\n", "ACGT", seq.CleanStats{Kept: 4}},
		{"whitespace-only lines", ">a\n \n\t\nACGT\n\r\n", "ACGT", seq.CleanStats{Kept: 4}},
		{"NUL inside a line", ">a\nAC\x00GT\n", "ACGT", seq.CleanStats{Kept: 4, Other: 1}},
		{"fasta without final newline", ">a\nACG\nT", "ACGT", seq.CleanStats{Kept: 4}},
		{"fasta header only", ">a ACGT\n", "", seq.CleanStats{}},
		{"fasta line over 16 MiB", ">chr1 GATTACA sample\n" + longSeq + "\n", longSeq, seq.CleanStats{Kept: len(longSeq)}},
		{"empty body", "", "", seq.CleanStats{}},
		{"raw text", "gattaca\nACGT\n", "GATTACAACGT", seq.CleanStats{Kept: 11, Other: 2}},
		{"raw text after form feed", "\fGATTACA\nACGT\n", "GATTACAACGT", seq.CleanStats{Kept: 11, Other: 3}},
		{"raw text with a header inside", "ACGT\n>x\nGG\n", "ACGTGG", seq.CleanStats{Kept: 6, Other: 5}},
		{"raw ambiguity codes", "ACGTNNRY", "ACGT", seq.CleanStats{Kept: 4, Ambiguous: 4}},
	}
}

func TestCleanseFASTADetection(t *testing.T) {
	for _, tc := range cleanseCases() {
		t.Run(tc.name, func(t *testing.T) {
			symbols, st := Cleanse([]byte(tc.in))
			if got := string(seq.Decode(symbols)); got != tc.want || st != tc.st {
				t.Errorf("Cleanse = %d bases %.16q, %+v; want %d bases %.16q, %+v",
					len(got), got, st, len(tc.want), tc.want, tc.st)
			}
		})
	}
}

// TestClientErrorPaths covers the 4xx surface. frame is a CXB1 container,
// single a CXA1 frame: a range must fail the same way on both.
func TestClientErrorPaths(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 1 << 20})
	input := synthASCII(800, 5)
	_, frame := post(t, ts.URL+"/compress?codec=twobit&block_size=128&name=err", input)
	_, single := post(t, ts.URL+"/compress?codec=twobit", input)
	const overflow = "/decompress?off=1&len=9223372036854775807" // off+len wraps negative

	cases := []struct {
		name   string
		method string
		url    string
		body   []byte
		want   int
	}{
		{"unknown codec", "POST", "/compress?codec=nope", input, http.StatusBadRequest},
		{"bad block_size", "POST", "/compress?block_size=-4", input, http.StatusBadRequest},
		{"bad ram_mb", "POST", "/compress?ram_mb=lots", input, http.StatusBadRequest},
		{"NaN ram_mb", "POST", "/compress?ram_mb=NaN", input, http.StatusBadRequest},
		{"Inf cpu_mhz", "POST", "/compress?cpu_mhz=Inf", input, http.StatusBadRequest},
		{"NaN file_kb", "POST", "/compress?file_kb=NaN", input, http.StatusBadRequest},
		{"Inf bw_mbps", "POST", "/compress?bw_mbps=Infinity", input, http.StatusBadRequest},
		{"empty input", "POST", "/compress", []byte(">header only\n"), http.StatusBadRequest},
		{"compress wrong method", "GET", "/compress", nil, http.StatusMethodNotAllowed},
		{"garbage container", "POST", "/decompress", []byte("not a frame"), http.StatusUnprocessableEntity},
		{"bad off", "POST", "/decompress?off=-1", frame, http.StatusBadRequest},
		{"range past end", "POST", "/decompress?off=0&len=999999", frame, http.StatusRequestedRangeNotSatisfiable},
		{"offset past end", "POST", "/decompress?off=999999", frame, http.StatusRequestedRangeNotSatisfiable},
		{"range past end CXA1", "POST", "/decompress?off=0&len=999999", single, http.StatusRequestedRangeNotSatisfiable},
		{"overflowing len CXA1", "POST", overflow, single, http.StatusRequestedRangeNotSatisfiable},
		{"overflowing len CXB1", "POST", overflow, frame, http.StatusRequestedRangeNotSatisfiable},
		{"overflowing len stored", "GET", overflow + "&name=err", nil, http.StatusRequestedRangeNotSatisfiable},
		{"get without name", "GET", "/decompress", nil, http.StatusBadRequest},
		{"get unknown name", "GET", "/decompress?name=missing", nil, http.StatusNotFound},
		{"decompress wrong method", "DELETE", "/decompress", nil, http.StatusMethodNotAllowed},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, ts.URL+tc.url, bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: HTTP %d, want %d (%s)", tc.name, resp.StatusCode, tc.want, strings.TrimSpace(string(body)))
		}
	}
}

// TestBodyTooLarge: the body cap answers 413 and books a rejection.
func TestBodyTooLarge(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, Config{MaxBodyBytes: 1024, Registry: reg})
	resp, _ := post(t, ts.URL+"/compress", bytes.Repeat([]byte("ACGT"), 4096))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("HTTP %d, want 413", resp.StatusCode)
	}
	if n := reg.Counter("dna_serve_rejected_total", "", "reason", "body_too_large").Value(); n == 0 {
		t.Error("rejection not counted")
	}
}

// gateCodec registers a codec whose name exists purely so white-box tests
// can key the per-codec semaphore; its encode/decode are never invoked.
type gateCodec struct{}

func (gateCodec) Name() string { return "gatetest" }
func (gateCodec) Compress(src []byte) ([]byte, compress.Stats, error) {
	return append([]byte(nil), src...), compress.Stats{}, nil
}
func (c gateCodec) Decompress(data []byte) ([]byte, compress.Stats, error) {
	return c.DecompressTo(nil, data)
}
func (gateCodec) DecompressTo(dst, data []byte) ([]byte, compress.Stats, error) {
	return append(dst[:0], data...), compress.Stats{}, nil
}

var gateOnce sync.Once

func registerGateCodec() {
	gateOnce.Do(func() {
		compress.Register("gatetest", func() compress.Codec { return gateCodec{} })
	})
}

func okResponse() *response { return &response{status: http.StatusOK} }

// submitPlain adapts the admission-plane tests to submit's request-scoped
// signature: an untraced synthetic request around a plain work function.
func (s *Server) submitPlain(endpoint, codec string, fn func() *response) *response {
	rx := &reqObs{endpoint: endpoint, origin: "organic", ctx: context.Background()}
	return s.submit(rx, codec, func(context.Context) *response { return fn() })
}

// TestQueueFullAnswers429: with one worker pinned and the one-slot queue
// occupied, the next submission must be refused with 429 + Retry-After —
// backpressure, not a silent drop.
func TestQueueFullAnswers429(t *testing.T) {
	registerGateCodec()
	reg := obs.NewRegistry()
	// PerCodecBacklog is widened past the queue so this test keeps hitting
	// the queue_full path, not the codec-saturation bound.
	s, err := NewServer(Config{Engine: testEngine(t), Workers: 1, QueueDepth: 1, PerCodecBacklog: 16, Registry: reg, RetryAfterSeconds: 3})
	if err != nil {
		t.Fatal(err)
	}

	gate := make(chan struct{})
	started := make(chan struct{})
	release := func() *response { return okResponse() }

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // occupies the single worker
		defer wg.Done()
		s.submitPlain("compress", "gatetest", func() *response {
			close(started)
			<-gate
			return okResponse()
		})
	}()
	<-started
	go func() { // occupies the single queue slot
		defer wg.Done()
		s.submitPlain("compress", "gatetest", release)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for len(s.queue) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second job never entered the queue")
		}
		time.Sleep(time.Millisecond)
	}

	resp := s.submitPlain("compress", "gatetest", release)
	if resp.status != http.StatusTooManyRequests {
		t.Fatalf("third submission got %d, want 429", resp.status)
	}
	if ra := resp.header["Retry-After"]; ra != "3" {
		t.Errorf("Retry-After = %q, want 3", ra)
	}
	if n := reg.Counter("dna_serve_rejected_total", "", "reason", "queue_full").Value(); n != 1 {
		t.Errorf("queue_full rejections = %d, want 1", n)
	}

	close(gate)
	wg.Wait()
	s.Close()
}

// TestPerCodecLimit: with PerCodec=1, a second job for the same codec
// waits on the semaphore while a different codec still gets a worker.
func TestPerCodecLimit(t *testing.T) {
	registerGateCodec()
	s, err := NewServer(Config{Engine: testEngine(t), Workers: 3, PerCodec: 1, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}

	gate := make(chan struct{})
	first := make(chan struct{})
	second := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		s.submitPlain("compress", "gatetest", func() *response {
			close(first)
			<-gate
			return okResponse()
		})
	}()
	<-first
	go func() {
		defer wg.Done()
		s.submitPlain("compress", "gatetest", func() *response {
			close(second)
			<-gate
			return okResponse()
		})
	}()

	// A different codec must not be starved by gatetest's semaphore.
	done := make(chan *response, 1)
	go func() { done <- s.submitPlain("compress", "twobit", okResponse) }()
	select {
	case r := <-done:
		if r.status != http.StatusOK {
			t.Fatalf("other-codec job got %d", r.status)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("other-codec job starved behind the gatetest semaphore")
	}

	// The same codec must still be held back.
	select {
	case <-second:
		t.Fatal("second gatetest job ran while the first held the PerCodec=1 semaphore")
	default:
	}

	close(gate)
	<-second // now it may proceed
	wg.Wait()
	s.Close()
}

// TestDrainRefusesNewWork: BeginDrain turns /healthz 503 and refuses new
// submissions while letting the registered refusal metric show up.
func TestDrainRefusesNewWork(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := newTestServer(t, Config{Registry: reg})

	resp, _ := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before drain: HTTP %d", resp.StatusCode)
	}

	s.BeginDrain()
	if !s.draining.Load() {
		t.Fatal("draining false after BeginDrain")
	}
	resp, _ = get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: HTTP %d, want 503", resp.StatusCode)
	}
	resp, body := post(t, ts.URL+"/compress", synthASCII(500, 1))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("compress during drain: HTTP %d (%s), want 503", resp.StatusCode, body)
	}
	if n := reg.Counter("dna_serve_rejected_total", "", "reason", "draining").Value(); n == 0 {
		t.Error("draining rejection not counted")
	}
}

// TestMetricsExposed: the daemon's own /metrics route serves the request
// counters and latency histograms the issue requires.
func TestMetricsExposed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post(t, ts.URL+"/compress?codec=twobit", synthASCII(600, 2))

	resp, body := get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", resp.StatusCode)
	}
	for _, want := range []string{
		"dna_serve_requests_total",
		"dna_serve_latency_ms",
		"dna_serve_codec_selected_total",
		"dna_serve_queue_depth",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// TestStoreBounded: the named-container store refuses new names past the
// cap (507) but allows idempotent overwrites.
func TestStoreBounded(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxStored: 2})
	input := synthASCII(400, 6)

	for _, name := range []string{"a", "b"} {
		resp, body := post(t, ts.URL+"/compress?codec=twobit&name="+name, input)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("store %s: HTTP %d (%s)", name, resp.StatusCode, body)
		}
	}
	resp, _ := post(t, ts.URL+"/compress?codec=twobit&name=c", input)
	if resp.StatusCode != http.StatusInsufficientStorage {
		t.Fatalf("third name: HTTP %d, want 507", resp.StatusCode)
	}
	resp, _ = post(t, ts.URL+"/compress?codec=twobit&name=a", input) // overwrite
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("overwrite: HTTP %d, want 200", resp.StatusCode)
	}
}

// TestModelRoundTrip: LoadModel reads back what ctxselect-style JSON
// persistence wrote, and the engines agree on every grid corner.
func TestModelRoundTrip(t *testing.T) {
	eng := testEngine(t)
	path := t.TempDir() + "/model.json"
	if err := SaveModel(path, eng); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, ctx := range []core.Context{
		{FileSizeKB: 2, RAMMB: 768, CPUMHz: 1000, BandwidthMbps: 2},
		{FileSizeKB: 64, RAMMB: 3584, CPUMHz: 2400, BandwidthMbps: 10},
		{FileSizeKB: 512, RAMMB: 7168, CPUMHz: 3000, BandwidthMbps: 20},
	} {
		if got, want := loaded.SelectCodec(ctx), eng.SelectCodec(ctx); got != want {
			t.Errorf("loaded model picks %q, original %q for %+v", got, want, ctx)
		}
	}
}
