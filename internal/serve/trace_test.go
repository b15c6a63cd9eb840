package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/srl-nuces/ctxdna/internal/obs"
)

// postTraced issues a POST with a traceparent header (when non-empty) and
// returns the response and body.
func postTraced(t *testing.T, url, traceparent string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if traceparent != "" {
		req.Header.Set("Traceparent", traceparent)
	}
	resp, err := http.DefaultClient.Do(req)
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

// decodeEnvelope parses a ?trace=1 response body.
func decodeEnvelope(t *testing.T, body []byte) traceEnvelope {
	t.Helper()
	var env traceEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("decoding trace envelope: %v\n%s", err, body)
	}
	return env
}

// recorderDoc is the /debug/requests response shape.
type recorderDoc struct {
	Total    uint64              `json:"total"`
	Capacity int                 `json:"capacity"`
	Requests []obs.RequestRecord `json:"requests"`
}

// debugRequests fetches /debug/requests and returns the document with the
// record of the request that stored the container name (nil if none).
func debugRequests(t *testing.T, base, name string) (recorderDoc, *obs.RequestRecord) {
	t.Helper()
	resp, body := postTraced(t, base+"/debug/requests", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/requests: HTTP %d", resp.StatusCode)
	}
	var doc recorderDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("decoding /debug/requests: %v", err)
	}
	for i := range doc.Requests {
		if doc.Requests[i].StoreName == name {
			return doc, &doc.Requests[i]
		}
	}
	return doc, nil
}

// TestTraceContinuityThroughFleet: a POST /compress carrying an inbound
// traceparent, against a fleet-backed store, must export one trace whose
// serve -> codec -> store -> fleet replica spans all share the caller's
// trace ID, with the root span parented on the caller's span, and the
// flight recorder must file the request under that trace ID.
func TestTraceContinuityThroughFleet(t *testing.T) {
	fleet, _ := testFleet(t, 4, 2)
	_, ts := newTestServer(t, Config{FleetStore: fleet})

	const callerTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	const callerSpan = "00f067aa0ba902b7"
	seqBody := bytes.Repeat([]byte("ACGTACGGTTAAC"), 160)
	resp, body := postTraced(t, ts.URL+"/compress?name=probe&trace=1",
		obs.FormatTraceparent(callerTrace, callerSpan), seqBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compress: HTTP %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Dnacomp-Trace-Id"); got != callerTrace {
		t.Errorf("X-Dnacomp-Trace-Id = %q, want caller's %q", got, callerTrace)
	}

	env := decodeEnvelope(t, body)
	if env.Status != http.StatusOK || env.TraceID != callerTrace {
		t.Fatalf("envelope status/trace = %d/%q, want 200/%q", env.Status, env.TraceID, callerTrace)
	}
	if len(env.Trace) != 1 {
		t.Fatalf("trace has %d roots, want 1", len(env.Trace))
	}
	root := env.Trace[0]
	if root.Name != "serve.compress" || root.ParentSpanID != callerSpan || root.TraceID != callerTrace {
		t.Fatalf("root = %q parent=%q trace=%q, want serve.compress parented on %q in %q",
			root.Name, root.ParentSpanID, root.TraceID, callerSpan, callerTrace)
	}

	// Every span in the export shares the caller's trace ID and has its own
	// span ID; every non-root span is parented inside the trace.
	spanIDs := map[string]bool{callerSpan: true}
	var codecSpan *obs.SpanTree
	root.Walk(func(n *obs.SpanTree) {
		if n.TraceID != callerTrace {
			t.Errorf("span %q carries trace %q, want %q", n.Name, n.TraceID, callerTrace)
		}
		if n.SpanID == "" || spanIDs[n.SpanID] {
			t.Errorf("span %q has missing or duplicate span ID %q", n.Name, n.SpanID)
		}
		spanIDs[n.SpanID] = true
		if codecSpan == nil && strings.HasPrefix(n.Name, "codec.") {
			codecSpan = n
		}
	})
	root.Walk(func(n *obs.SpanTree) {
		if n != root && !spanIDs[n.ParentSpanID] {
			t.Errorf("span %q parent %q is not a span of this trace", n.Name, n.ParentSpanID)
		}
	})

	if codecSpan == nil {
		t.Error("no codec.* span in the trace")
	}
	store := root.Find("serve.store")
	if store == nil {
		t.Fatal("no serve.store span in the trace")
	}
	put := store.Find("fleet.put")
	if put == nil {
		t.Fatal("fleet.put is not a descendant of serve.store")
	}
	if put.Find("fleet.replica.put") == nil {
		t.Error("fleet.put has no fleet.replica.put child")
	}

	if _, rec := debugRequests(t, ts.URL, "probe"); rec == nil {
		t.Error("/debug/requests has no record for the stored container probe")
	} else if rec.TraceID != callerTrace {
		t.Errorf("recorder trace ID = %q, want caller's %q", rec.TraceID, callerTrace)
	}

	// The envelope carries the real response body: the frame decompresses
	// back to the posted sequence.
	resp, restored := postTraced(t, ts.URL+"/decompress", "", env.Body)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(restored, seqBody) {
		t.Errorf("envelope body did not round-trip: HTTP %d, %d bytes back", resp.StatusCode, len(restored))
	}
}

// TestTraceExportDeterministic: two identically configured servers (same
// seeded IDSource, same fake clock) export byte-identical trace envelopes
// for the same request, so a trace can be replayed and compared run over
// run.
func TestTraceExportDeterministic(t *testing.T) {
	run := func() []byte {
		_, ts := newTestServer(t, Config{
			IDs:   obs.NewSeededIDSource(99),
			Clock: obs.NewFake(time.Unix(1700000000, 0).UTC()),
		})
		resp, body := postTraced(t, ts.URL+"/compress?trace=1", "", bytes.Repeat([]byte("ACCGGTAC"), 128))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("compress: HTTP %d: %s", resp.StatusCode, body)
		}
		return body
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("trace envelopes differ between identically seeded servers\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
	env := decodeEnvelope(t, a)
	if env.TraceID == "" || len(env.Trace) != 1 {
		t.Fatalf("deterministic envelope malformed: trace=%q roots=%d", env.TraceID, len(env.Trace))
	}
}

// TestDebugRequestsAttribution: the flight recorder replays a stored
// request's full attribution — codec and why, shard replica set, breaker
// states — from /debug/requests.
func TestDebugRequestsAttribution(t *testing.T) {
	fleet, _ := testFleet(t, 4, 2)
	_, ts := newTestServer(t, Config{FleetStore: fleet})

	resp, body := postTraced(t, ts.URL+"/compress?name=blob1", "", bytes.Repeat([]byte("ACGTTGCA"), 96))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compress: HTTP %d: %s", resp.StatusCode, body)
	}

	doc, rec := debugRequests(t, ts.URL, "blob1")
	if doc.Total < 1 || doc.Capacity != 256 || len(doc.Requests) == 0 {
		t.Fatalf("recorder doc = total %d capacity %d with %d records", doc.Total, doc.Capacity, len(doc.Requests))
	}
	if rec == nil {
		t.Fatal("no record for the stored container blob1")
	}
	if rec.Endpoint != "compress" || rec.Outcome != "ok" || rec.Origin != "organic" {
		t.Errorf("record endpoint/outcome/origin = %q/%q/%q", rec.Endpoint, rec.Outcome, rec.Origin)
	}
	if rec.Codec == "" || rec.CodecSource == "" {
		t.Errorf("record lacks codec attribution: codec=%q source=%q", rec.Codec, rec.CodecSource)
	}
	if len(rec.Shards) != 2 {
		t.Errorf("record shards = %v, want the 2-replica set", rec.Shards)
	}
	if len(rec.Breakers) != 4 {
		t.Errorf("record breakers = %v, want all 4 shards", rec.Breakers)
	}
	for shard, state := range rec.Breakers {
		if state != "closed" {
			t.Errorf("breaker %s = %q on a healthy fleet", shard, state)
		}
	}
	if rec.InBytes == 0 || rec.OutBytes == 0 || rec.Bases == 0 {
		t.Errorf("record sizes missing: in=%d out=%d bases=%d", rec.InBytes, rec.OutBytes, rec.Bases)
	}
}

// TestDebugSLOEndpoint: /debug/slo always yields a non-empty verdict over
// the default objectives.
func TestDebugSLOEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postTraced(t, ts.URL+"/compress", "", bytes.Repeat([]byte("ACGT"), 64))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compress: HTTP %d: %s", resp.StatusCode, body)
	}
	resp, body = postTraced(t, ts.URL+"/debug/slo", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/slo: HTTP %d", resp.StatusCode)
	}
	var doc struct {
		Verdict    string          `json:"verdict"`
		Objectives []obs.SLOStatus `json:"objectives"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("decoding /debug/slo: %v", err)
	}
	if doc.Verdict == "" {
		t.Error("SLO verdict is empty")
	}
	names := map[string]bool{}
	for _, o := range doc.Objectives {
		names[o.Name] = true
		if o.Verdict == "" {
			t.Errorf("objective %s has empty verdict", o.Name)
		}
	}
	if !names["compress_latency"] || !names["availability"] {
		t.Errorf("default objectives missing: %v", names)
	}
}

// TestRunLoadReportIdenticalWithTracing is the satellite-3 proof: enabling
// the flight recorder and per-call tracing changes nothing in the
// harness-visible report — the marshaled LoadReport is byte-identical with
// observability fully on and fully off (fake harness clocks on both sides
// so latencies are exactly zero).
func TestRunLoadReportIdenticalWithTracing(t *testing.T) {
	run := func(observed bool) []byte {
		cfg := Config{Workers: 4, QueueDepth: 64}
		if !observed {
			cfg.RecorderSize = -1
		}
		_, ts := newTestServer(t, cfg)
		rep, err := RunLoad(context.Background(), LoadOptions{
			BaseURL:     ts.URL,
			Units:       12,
			Concurrency: 4,
			Seed:        3,
			MinBases:    256,
			MaxBases:    1024,
			Registry:    obs.NewRegistry(),
			Clock:       obs.NewFake(time.Unix(1700000000, 0).UTC()),
			NoTrace:     !observed,
		})
		if err != nil {
			t.Fatalf("RunLoad: %v", err)
		}
		if rep.Failed != 0 || rep.Rejected != 0 {
			t.Fatalf("run not clean: %d failed, %d rejected (%v)", rep.Failed, rep.Rejected, rep.Errors)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	traced, plain := run(true), run(false)
	if !bytes.Equal(traced, plain) {
		t.Fatalf("LoadReport differs with observability on\n--- traced ---\n%s\n--- plain ---\n%s", traced, plain)
	}
	var rep LoadReport
	if err := json.Unmarshal(traced, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.SLOVerdict == "" {
		t.Error("LoadReport SLO verdict is empty")
	}
}

// TestLoadgenOriginTagged: loadgen calls land in the flight recorder
// tagged origin=loadgen with joinable trace IDs, while organic requests
// stay origin=organic — the satellite-6 distinguishability requirement.
func TestLoadgenOriginTagged(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	resp, body := postTraced(t, ts.URL+"/compress", "", bytes.Repeat([]byte("AACGGT"), 80))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("organic compress: HTTP %d: %s", resp.StatusCode, body)
	}
	if _, err := RunLoad(context.Background(), LoadOptions{
		BaseURL:     ts.URL,
		Units:       4,
		Concurrency: 2,
		Seed:        11,
		MinBases:    256,
		MaxBases:    512,
		Registry:    obs.NewRegistry(),
	}); err != nil {
		t.Fatalf("RunLoad: %v", err)
	}

	var organic, loadgen, loadgenTraced int
	for _, rec := range s.recorder.Snapshot() {
		switch rec.Origin {
		case "organic":
			organic++
		case "loadgen":
			loadgen++
			if rec.TraceID != "" {
				loadgenTraced++
			}
		default:
			t.Errorf("record with unknown origin %q", rec.Origin)
		}
	}
	if organic == 0 || loadgen == 0 {
		t.Fatalf("recorder saw %d organic and %d loadgen records, want both > 0", organic, loadgen)
	}
	if loadgenTraced != loadgen {
		t.Errorf("%d of %d loadgen records carry a trace ID, want all", loadgenTraced, loadgen)
	}
}
