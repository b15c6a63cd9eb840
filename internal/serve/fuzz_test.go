package serve

import (
	"bytes"
	"math"
	"net/http"
	"net/url"
	"testing"

	"github.com/srl-nuces/ctxdna/internal/seq"
)

// FuzzRequestParams feeds arbitrary query strings to the daemon's
// parameter parsers, with a restored base count of up to 65535. A range
// either fails to parse or resolve, or lands inside a bases-long buffer,
// so slicing it cannot panic; compress parameters either fail or leave
// every context field finite and non-negative, so no NaN or Inf reaches
// the selection tree.
func FuzzRequestParams(f *testing.F) {
	f.Add("off=1&len=9223372036854775807", uint16(800))
	f.Add("ram_mb=NaN&cpu_mhz=Inf&file_kb=NaN", uint16(0))
	f.Add("off=4990&len=10", uint16(5000))
	f.Add("off=7", uint16(7))
	f.Add("bw_mbps=1e400&block_size=64&codec=twobit", uint16(1))
	f.Fuzz(func(t *testing.T, query string, bases uint16) {
		buf := make([]byte, bases)
		q, _ := url.ParseQuery(query) // the values r.URL.Query() hands the handler
		if rng, err := parseRange(q); err == nil {
			if off, n, err := resolveRange(rng, len(buf)); err == nil {
				if off < 0 || n < 0 || n > len(buf)-off {
					t.Fatalf("query %q: range [%d, %d+%d) escapes %d bases", query, off, off, n, len(buf))
				}
				_ = buf[off : off+n]
			}
		}

		p, err := (&Server{}).parseCompressParams(&http.Request{URL: &url.URL{RawQuery: query}})
		if err != nil {
			return
		}
		for _, v := range []float64{p.fileKB, p.ctx.FileSizeKB, p.ctx.RAMMB, p.ctx.CPUMHz, p.ctx.BandwidthMbps} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("query %q: context value %v, want finite and >= 0", query, v)
			}
		}
	})
}

// FuzzCleanse feeds arbitrary bodies to Cleanse, which every dnacomp
// input passes through, and to the in-place cleansing of every /compress
// body. Whatever the bytes, Cleanse leaves them unchanged and returns only
// symbol codes 0..3, one per kept base, and cleansing the decoded symbols
// gives them back; a body not led by '>' accounts for each of its bytes as
// kept, ambiguous or other. Cleansing a copy of the body in place gives
// Cleanse's symbols and stats.
func FuzzCleanse(f *testing.F) {
	for _, tc := range cleanseCases() {
		f.Add([]byte(tc.in))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		body := append([]byte(nil), raw...)
		symbols, st := Cleanse(raw)
		if !bytes.Equal(raw, body) {
			t.Fatalf("body %.64q: Cleanse wrote to its input", body)
		}
		if inPlace, ipst := appendCleansed(body[:0], body); !bytes.Equal(inPlace, symbols) || ipst != st {
			t.Fatalf("body %.64q: cleansed in place to %d symbols %+v, Cleanse to %d %+v", raw, len(inPlace), ipst, len(symbols), st)
		}
		if !seq.Valid(symbols) {
			t.Fatalf("body %.64q: symbol outside 0..3", raw)
		}
		if len(symbols) != st.Kept {
			t.Fatalf("body %.64q: %d symbols, Kept = %d", raw, len(symbols), st.Kept)
		}
		if again, _ := Cleanse(seq.Decode(symbols)); !bytes.Equal(again, symbols) {
			t.Fatalf("body %.64q: cleansing the decoded symbols changed them", raw)
		}
		if !bytes.HasPrefix(bytes.TrimSpace(raw), []byte(">")) && st.Kept+st.Ambiguous+st.Other != len(raw) {
			t.Fatalf("body %.64q: stats %+v do not account for %d bytes", raw, st, len(raw))
		}
	})
}
