package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("ops_total", "ops", "codec", "dnax")
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Re-resolve the series in every worker to exercise the registry
			// lookup path under contention too.
			cc := reg.Counter("ops_total", "ops", "codec", "dnax")
			for i := 0; i < perWorker; i++ {
				cc.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
}

func TestSameSeriesRegardlessOfLabelOrder(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", "", "a", "1", "b", "2")
	b := reg.Counter("x_total", "", "b", "2", "a", "1")
	if a != b {
		t.Fatal("label order created distinct series")
	}
}

func TestKindConflictPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("clash", "")
	defer func() {
		if recover() == nil {
			t.Fatal("redeclaring a counter as a gauge did not panic")
		}
	}()
	reg.Gauge("clash", "")
}

func TestOddLabelsPanics(t *testing.T) {
	reg := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("odd label list did not panic")
		}
	}()
	reg.Counter("x_total", "", "key-without-value")
}

func TestGauge(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("workers_busy", "")
	g.Set(3)
	g.Add(2)
	g.Add(-4)
	if got := g.Value(); got != 1 {
		t.Fatalf("gauge = %v, want 1", got)
	}
	g.SetMax(0.5) // below current: no-op
	if got := g.Value(); got != 1 {
		t.Fatalf("SetMax lowered the gauge to %v", got)
	}
	g.SetMax(7)
	if got := g.Value(); got != 7 {
		t.Fatalf("SetMax = %v, want 7", got)
	}
}

// TestHistogramBucketEdges pins le semantics: a value exactly on a bucket
// bound counts in that bucket, just above it spills into the next, beyond
// the last bound lands in +Inf.
func TestHistogramBucketEdges(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_ms", "", []float64{1, 2, 5})
	for _, v := range []float64{1.0, 1.000001, 2.0, 5.0, 5.1, 0.2} {
		h.Observe(v)
	}
	snap := reg.Snapshot()
	if len(snap) != 1 || len(snap[0].Series) != 1 {
		t.Fatalf("snapshot shape: %+v", snap)
	}
	s := snap[0].Series[0]
	// Cumulative: le=1 -> {1.0, 0.2}; le=2 -> +{1.000001, 2.0}; le=5 -> +{5.0}; +Inf -> +{5.1}.
	want := []struct {
		le    float64
		count uint64
	}{{1, 2}, {2, 4}, {5, 5}, {math.Inf(1), 6}}
	if len(s.Buckets) != len(want) {
		t.Fatalf("%d buckets, want %d", len(s.Buckets), len(want))
	}
	for i, w := range want {
		if s.Buckets[i].LE != w.le || s.Buckets[i].Count != w.count {
			t.Errorf("bucket %d = {le %v, n %d}, want {le %v, n %d}",
				i, s.Buckets[i].LE, s.Buckets[i].Count, w.le, w.count)
		}
	}
	if s.Count != 6 {
		t.Errorf("count = %d, want 6", s.Count)
	}
	if math.Abs(s.Sum-14.300001) > 1e-9 {
		t.Errorf("sum = %v, want 14.300001", s.Sum)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("d_ms", "", DefMSBuckets())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(i % 50))
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != 8000 {
		t.Fatalf("count = %d, want 8000", got)
	}
}

// TestNilHandlesAreNoops: disabled instrumentation is a nil handle, and
// every method on it must be safe.
func TestNilHandlesAreNoops(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.Add(1)
	g.SetMax(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil handles reported nonzero values")
	}
}

// TestPrometheusGolden pins the exact text exposition: family order,
// series order, escaping, histogram rendering.
func TestPrometheusGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dna_codec_calls_total", "Codec operations executed.", "codec", "dnax", "op", "compress").Add(3)
	reg.Counter("dna_codec_calls_total", "Codec operations executed.", "codec", "ctw", "op", "compress").Add(1)
	reg.Gauge("dna_grid_workers_busy", "Workers currently executing a run.").Set(2)
	h := reg.Histogram("dna_codec_model_ms", "Modeled codec milliseconds.", []float64{1, 10}, "codec", "dnax")
	h.Observe(0.5)
	h.Observe(4)
	h.Observe(40)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP dna_codec_calls_total Codec operations executed.
# TYPE dna_codec_calls_total counter
dna_codec_calls_total{codec="ctw",op="compress"} 1
dna_codec_calls_total{codec="dnax",op="compress"} 3
# HELP dna_codec_model_ms Modeled codec milliseconds.
# TYPE dna_codec_model_ms histogram
dna_codec_model_ms_bucket{codec="dnax",le="1"} 1
dna_codec_model_ms_bucket{codec="dnax",le="10"} 2
dna_codec_model_ms_bucket{codec="dnax",le="+Inf"} 3
dna_codec_model_ms_sum{codec="dnax"} 44.5
dna_codec_model_ms_count{codec="dnax"} 3
# HELP dna_grid_workers_busy Workers currently executing a run.
# TYPE dna_grid_workers_busy gauge
dna_grid_workers_busy 2
`
	if got := buf.String(); got != want {
		t.Fatalf("Prometheus text mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestPrometheusDeterministic: two writes of the same registry state are
// byte-identical.
func TestPrometheusDeterministic(t *testing.T) {
	reg := NewRegistry()
	for _, codec := range []string{"gzip", "ctw", "dnax", "gencompress"} {
		reg.Counter("calls_total", "", "codec", codec).Add(uint64(len(codec)))
	}
	var a, b bytes.Buffer
	if err := reg.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("two snapshots of identical state differ")
	}
}

func TestExpvarAndDebugHandler(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dna_cache_hits_total", "Cache hits.").Add(42)
	srv := httptest.NewServer(DebugHandler(reg))
	defer srv.Close()

	get := func(path string) string {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return sb.String()
	}

	metrics := get("/metrics")
	if !strings.Contains(metrics, "dna_cache_hits_total 42") {
		t.Fatalf("/metrics missing counter:\n%s", metrics)
	}
	vars := get("/debug/vars")
	var decoded map[string]json.RawMessage
	if err := json.Unmarshal([]byte(vars), &decoded); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if _, ok := decoded["ctxdna_metrics"]; !ok {
		t.Fatalf("/debug/vars missing ctxdna_metrics: %s", vars)
	}
	if pprofIndex := get("/debug/pprof/"); !strings.Contains(pprofIndex, "goroutine") {
		t.Fatal("/debug/pprof/ index not served")
	}
}

// TestSeriesLookupAllocatesNothing: once a series exists, looking it up
// again through Counter, Gauge or Histogram, its labels in any order,
// allocates nothing; the signature string is made only for a new series.
func TestSeriesLookupAllocatesNothing(t *testing.T) {
	reg := NewRegistry()
	op, outcome := "getrange", "ok"
	reg.Counter("ops_total", "", "op", op, "outcome", outcome)
	reg.Gauge("busy", "", "shard", "s1")
	reg.Histogram("quorum_ms", "", DefMSBuckets(), "op", op)
	allocs := testing.AllocsPerRun(100, func() {
		reg.Counter("ops_total", "", "outcome", outcome, "op", op).Inc()
		reg.Gauge("busy", "", "shard", "s1").Set(1)
		reg.Histogram("quorum_ms", "", DefMSBuckets(), "op", op).Observe(2)
	})
	if allocs != 0 {
		t.Errorf("lookups of existing series made %v allocations, want 0", allocs)
	}
	if got := reg.Counter("ops_total", "", "op", op, "outcome", outcome).Value(); got != 101 {
		t.Errorf("counter reads %d after 101 increments of one series", got)
	}
}
