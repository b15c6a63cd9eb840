package obs

import (
	"strings"
	"testing"
)

// TestPrometheusEscapingGolden pins the 0.0.4 exposition escaping with
// hostile codec/shard names: backslash, double-quote and newline must be
// backslash-escaped in label values, HELP escapes backslash and newline
// only, and non-ASCII UTF-8 passes through raw (Go's %q used to mangle it
// into \uNNNN escapes, which Prometheus parsers read literally).
func TestPrometheusEscapingGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(
		"dna_requests_total",
		`requests per codec\shard ("sealed" frames)`+"\nsecond line",
		"codec", `dna\x "quoted"`+"\nnl",
		"shard", "ssd-东-1",
	).Add(3)
	reg.Histogram("dna_lat_ms", "latency", []float64{1, 10}, "shard", `a\b`).Observe(5)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := `# HELP dna_lat_ms latency
# TYPE dna_lat_ms histogram
dna_lat_ms_bucket{shard="a\\b",le="1"} 0
dna_lat_ms_bucket{shard="a\\b",le="10"} 1
dna_lat_ms_bucket{shard="a\\b",le="+Inf"} 1
dna_lat_ms_sum{shard="a\\b"} 5
dna_lat_ms_count{shard="a\\b"} 1
# HELP dna_requests_total requests per codec\\shard ("sealed" frames)\nsecond line
# TYPE dna_requests_total counter
dna_requests_total{codec="dna\\x \"quoted\"\nnl",shard="ssd-东-1"} 3
`
	if got != want {
		t.Fatalf("exposition mismatch\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestEscapeLabelValueNoAlloc(t *testing.T) {
	clean := "plain-ascii_codec.1"
	if out := escapeLabelValue(clean); out != clean {
		t.Fatalf("clean value changed: %q", out)
	}
	if out := escapeHelp("no escapes here"); out != "no escapes here" {
		t.Fatalf("clean help changed: %q", out)
	}
}

func TestLabelSignatureCanonical(t *testing.T) {
	a := string(appendLabelSignature(nil, []string{"b", "2", "a", "1"}))
	b := string(appendLabelSignature(nil, []string{"a", "1", "b", "2"}))
	if a != b || a != `a="1",b="2"` {
		t.Fatalf("signatures not canonical: %q vs %q", a, b)
	}
	// More pairs than the sort's stack holds, in reverse key order.
	var labels []string
	var want strings.Builder
	for k := 'a'; k <= 'k'; k++ {
		labels = append([]string{string(k), "v"}, labels...)
		if k > 'a' {
			want.WriteByte(',')
		}
		want.WriteString(string(k) + `="v"`)
	}
	if got := string(appendLabelSignature(nil, labels)); got != want.String() {
		t.Fatalf("11 pairs in reverse: signature %q, want %q", got, want.String())
	}
}
