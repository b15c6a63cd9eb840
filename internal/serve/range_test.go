package serve

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/srl-nuces/ctxdna/internal/cloud"
	"github.com/srl-nuces/ctxdna/internal/compress"
	"github.com/srl-nuces/ctxdna/internal/obs"
)

// countingStore is a shard store that totals the bytes its reads return.
type countingStore struct {
	*cloud.BlobStore
	bytes, reads *atomic.Int64
}

func (s countingStore) Get(container, blob string) ([]byte, error) {
	b, err := s.BlobStore.Get(container, blob)
	s.bytes.Add(int64(len(b)))
	s.reads.Add(1)
	return b, err
}

func (s countingStore) GetRange(container, blob string, off, n int) ([]byte, error) {
	b, err := s.BlobStore.GetRange(container, blob, off, n)
	s.bytes.Add(int64(len(b)))
	s.reads.Add(1)
	return b, err
}

// countingFleet is a 5-shard, 3-replica fleet whose shard stores count
// the bytes they return into bytes and their reads into reads.
func countingFleet(t *testing.T) (f *cloud.Fleet, bytes, reads *atomic.Int64) {
	t.Helper()
	bytes, reads = new(atomic.Int64), new(atomic.Int64)
	specs := cloud.DefaultShardSpecs(5, 0, 5)
	for i := range specs {
		specs[i].Store = countingStore{cloud.NewBlobStore(), bytes, reads}
	}
	f, err := cloud.NewFleet(cloud.FleetConfig{
		Shards:      specs,
		Replication: 3,
		Seed:        42,
		Clock:       obs.NewFake(time.Unix(1700000000, 0).UTC()),
		Registry:    obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return f, bytes, reads
}

// answer is what a client sees of one response: status, body and the
// daemon's own headers.
type answer struct {
	status                     int
	body                       string
	codec, bases, rng, retryAt string
}

func answerOf(resp *http.Response, body []byte) answer {
	return answer{resp.StatusCode, string(body), resp.Header.Get("X-Dnacomp-Codec"),
		resp.Header.Get("X-Dnacomp-Bases"), resp.Header.Get("X-Dnacomp-Range"), resp.Header.Get("Retry-After")}
}

// TestRangeReadMatchesWholeContainer: a GET of a stored container, which
// fetches its index and then only the frames it decodes, answers every
// window (inside, across blocks, at the ends, past the end, whole) with
// the status, body and headers that POSTing the whole container for the
// same window answers, on the in-process store and on a fleet. The
// containers cover a multi-block archive, one whose index runs past the
// first read, a single frame longer than it, and one container shorter
// than it.
func TestRangeReadMatchesWholeContainer(t *testing.T) {
	fleet, _ := testFleet(t, 5, 3)
	stores := []struct {
		name string
		cfg  Config
	}{{"local", Config{}}, {"fleet", Config{FleetStore: fleet}}}
	input := synthASCII(6000, 17)
	containers := []struct{ name, query string }{
		{"blocks", "codec=gzip&block_size=700"},
		{"longindex", "codec=twobit&block_size=64"}, // 94 blocks: 1,180 index bytes
		{"frame", "codec=gzip"},
		{"small", "codec=twobit&block_size=2000"},
	}
	windows := []string{"off=0&len=100", "off=699&len=2", "off=1234&len=2999", "off=5990&len=10",
		"off=5999&len=1", "off=6000&len=0", "off=6000&len=1", "off=5000", "off=7000", "len=6001", ""}
	for _, st := range stores {
		_, ts := newTestServer(t, st.cfg)
		for _, c := range containers {
			in := input
			if c.name == "small" {
				in = input[:1200]
			}
			resp, container := post(t, ts.URL+"/compress?name="+c.name+"&"+c.query, in)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s %s: compress: HTTP %d: %s", st.name, c.name, resp.StatusCode, container)
			}
			for _, w := range windows {
				got := answerOf(get(t, ts.URL+"/decompress?name="+c.name+"&"+w))
				want := answerOf(post(t, ts.URL+"/decompress?"+w, container))
				if got != want {
					t.Errorf("%s %s %q: GET answers %d %q (range %q), POST %d %q (range %q)", st.name, c.name, w,
						got.status, trim(got.body), got.rng, want.status, trim(want.body), want.rng)
				}
			}
		}
	}
}

func trim(s string) string {
	if len(s) > 40 {
		return s[:40] + "..."
	}
	return s
}

// TestRangeReadFetchesOnlyItsFrames counts the bytes the fleet's shard
// stores return for windows of a 16-block archive that each lie inside one
// block: the prefix read for the header and index from one replica of the
// read quorum, the window's frame from one of them, and the version
// envelopes' headers; a small fraction of what a whole read moves. A whole
// read moves the container once, plus one prefix and the headers.
func TestRangeReadFetchesOnlyItsFrames(t *testing.T) {
	fleet, moved, reads := countingFleet(t)
	_, ts := newTestServer(t, Config{FleetStore: fleet})
	const blockSize = 8192
	input := synthASCII(16*blockSize, 23)
	resp, container := post(t, ts.URL+fmt.Sprintf("/compress?codec=twobit&block_size=%d&name=arc", blockSize), input)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compress: HTTP %d: %s", resp.StatusCode, container)
	}
	rd, err := compress.OpenBlocks(container, compress.Limits{})
	if err != nil || rd.Blocks() != 16 {
		t.Fatalf("archive: %v, %d blocks", err, rd.Blocks())
	}
	index := compress.BlockHeaderSize("twobit") + 16*12 + 4
	const quorum = 2 // replicas a read of 3 replicas waits for
	// Store reads per range read: the prefix from one replica and the
	// header alone from each other, then the frame as header, span and
	// header from one, the header alone from each other.
	const wantReads = 1 + (quorum - 1) + 3 + (quorum - 1)
	for _, k := range []int{0, 7, 15} {
		off := k*blockSize + 1000
		moved.Store(0)
		reads.Store(0)
		resp, body := get(t, ts.URL+fmt.Sprintf("/decompress?name=arc&off=%d&len=5000", off))
		if resp.StatusCode != http.StatusOK || !bytes.Equal(body, input[off:off+5000]) {
			t.Fatalf("block %d: HTTP %d, body is not the window", k, resp.StatusCode)
		}
		frame := rd.Index()[k].Length
		prefix := max(indexPrefix, index) + binary.MaxVarintLen64 + (quorum-1)*binary.MaxVarintLen64
		limit := prefix + frame + (quorum+1)*binary.MaxVarintLen64
		if got := moved.Load(); got > int64(limit) || reads.Load() != wantReads {
			t.Errorf("block %d: stores returned %d bytes in %d reads, want at most %d in %d (frame %d bytes, container %d)",
				k, got, reads.Load(), limit, wantReads, frame, len(container))
		}
	}
	moved.Store(0)
	headers := (quorum + 1) * binary.MaxVarintLen64
	prefix := indexPrefix + binary.MaxVarintLen64 + (quorum-1)*binary.MaxVarintLen64
	lo, hi := len(container)+headers, len(container)+prefix+headers
	if resp, _ := get(t, ts.URL+"/decompress?name=arc"); resp.StatusCode != http.StatusOK || moved.Load() < int64(lo) || moved.Load() > int64(hi) {
		t.Errorf("whole read: HTTP %d, stores returned %d bytes of a %d-byte container, want %d to %d",
			resp.StatusCode, moved.Load(), len(container), lo, hi)
	}
}

// TestRangeReadsRaceOverwrites: range reads race a writer that overwrites
// one name with containers of different content, block sizes and codecs.
// Every read that succeeds returns its window of one of the written
// versions, never a mix; a read that loses every attempt to an overwrite
// answers 503 + Retry-After. make race runs it ten times.
func TestRangeReadsRaceOverwrites(t *testing.T) {
	fleet, _ := testFleet(t, 5, 3)
	_, ts := newTestServer(t, Config{FleetStore: fleet, RetryAfterSeconds: 2})
	versions := [][]byte{synthASCII(9000, 1), synthASCII(9000, 2), synthASCII(9000, 3)}
	queries := []string{"codec=gzip&block_size=600", "codec=twobit&block_size=1000", "codec=gzip"}
	// call makes one request off the test's goroutine, so it reports a
	// transport failure with t.Error and a 0 status.
	call := func(method, url string, body []byte) (*http.Response, []byte) {
		req, err := http.NewRequest(method, url, bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return &http.Response{}, nil
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			return &http.Response{}, nil
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Error(err)
		}
		return resp, out
	}
	put := func(i int) {
		if resp, body := call(http.MethodPost, ts.URL+"/compress?name=hot&"+queries[i], versions[i]); resp.StatusCode != http.StatusOK {
			t.Errorf("overwrite %d: HTTP %d: %s", i, resp.StatusCode, body)
		}
	}
	put(0)
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
				put(i % len(versions))
			}
		}
	}()
	var readers sync.WaitGroup
	var served, refused atomic.Int64
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; i < 25; i++ {
				off := (r*2311 + i*577) % 8000
				resp, body := call(http.MethodGet, ts.URL+"/decompress?name=hot&off="+strconv.Itoa(off)+"&len=900", nil)
				switch resp.StatusCode {
				case http.StatusOK:
					served.Add(1)
					ok := false
					for _, v := range versions {
						ok = ok || bytes.Equal(body, v[off:off+900])
					}
					if !ok {
						t.Errorf("reader %d: window at %d is no version's", r, off)
					}
				case http.StatusServiceUnavailable:
					refused.Add(1)
					if resp.Header.Get("Retry-After") != "2" {
						t.Errorf("reader %d: 503 without Retry-After", r)
					}
				default:
					t.Errorf("reader %d: HTTP %d: %s", r, resp.StatusCode, body)
				}
			}
		}(r)
	}
	readers.Wait()
	close(stop)
	writer.Wait()
	if served.Load() == 0 {
		t.Errorf("no read succeeded (%d refused)", refused.Load())
	}
}

// TestReadBodyAllocations: a body read to its declared length takes one
// allocation of that length and one spare byte; a declared length alone
// commits no more than the limit and maxBodyPrealloc, and past them the
// buffer grows only with the bytes that arrive.
func TestReadBodyAllocations(t *testing.T) {
	body := bytes.Repeat([]byte("ACGT"), 25_000)
	for _, tc := range []struct {
		name            string
		declared, limit int64
		maxAllocs       float64
		maxCap          int
	}{
		{"declared", int64(len(body)), 1 << 20, 1, len(body) + 1},
		{"lying short", 10, 1 << 20, 20, 2 * len(body)},
		{"lying long", 1 << 40, 1 << 30, 1, maxBodyPrealloc + 1},
		{"capped by the limit", 1 << 40, 4096, 20, 2 * len(body)},
	} {
		var got []byte
		r := bytes.NewReader(body)
		allocs := testing.AllocsPerRun(20, func() {
			r.Reset(body)
			var err error
			if got, err = ReadBody(r, tc.declared, tc.limit); err != nil {
				t.Fatal(err)
			}
		})
		if !bytes.Equal(got, body) || allocs > tc.maxAllocs || cap(got) > tc.maxCap {
			t.Errorf("%s: %d bytes (equal %v) in %v allocations, capacity %d; want at most %v allocations and capacity %d",
				tc.name, len(got), bytes.Equal(got, body), allocs, cap(got), tc.maxAllocs, tc.maxCap)
		}
	}
	if _, err := ReadBody(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), 1024), int64(len(body)), 1024); err == nil {
		t.Error("a body over the limit read without an error")
	}
}

// claimingContainer is a CXB1 container of 72 bytes whose checksums are
// all valid: it claims 2^30 dnax bases in two blocks of 2^29, and each
// block's frame is one byte. It opens under the default Limits.
func claimingContainer() []byte {
	const codec = "dnax"
	c := append([]byte(compress.BlockMagic), compress.BlockVersion, byte(len(codec)))
	c = append(c, codec...)
	c = binary.BigEndian.AppendUint64(c, 1<<30) // bases
	c = binary.BigEndian.AppendUint64(c, 1<<29) // block size
	c = binary.BigEndian.AppendUint64(c, 2)     // blocks
	c = binary.BigEndian.AppendUint32(c, 0)     // output CRC
	c = binary.BigEndian.AppendUint32(c, compress.Checksum(c))
	index := len(c)
	frames := []byte{0x01, 0x02}
	for k := range frames {
		c = binary.BigEndian.AppendUint64(c, 1)
		c = binary.BigEndian.AppendUint32(c, compress.Checksum(frames[k:k+1]))
	}
	c = binary.BigEndian.AppendUint32(c, compress.Checksum(c[index:]))
	return append(c, frames...)
}

// TestDecompressClaimAllocatesLittle: POSTing the 72-byte container that
// claims 2^30 bases to /decompress answers 422, and the request, handled
// whole, allocates under 64 KiB: nothing for the claim before block 0
// decodes. It allocated the claimed 1 GiB output first before.
func TestDecompressClaimAllocatesLittle(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	body := claimingContainer()
	var heap runtime.MemStats
	grew := uint64(math.MaxUint64)
	for range 3 { // the smallest of three: the first registers metric series
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/decompress", bytes.NewReader(body))
		runtime.ReadMemStats(&heap)
		before := heap.TotalAlloc
		s.Handler().ServeHTTP(rec, req)
		runtime.ReadMemStats(&heap)
		grew = min(grew, heap.TotalAlloc-before)
		if rec.Code != http.StatusUnprocessableEntity {
			t.Fatalf("POST of the %d-byte container: HTTP %d: %s", len(body), rec.Code, rec.Body)
		}
	}
	if grew >= 64<<10 {
		t.Errorf("POST /decompress of a container claiming 2^30 bases in two 1-byte frames allocated %d bytes", grew)
	}
}
