package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"
)

func fakeAt(sec int64) *Fake { return NewFake(time.Unix(sec, 0).UTC()) }

// TestSpanFakeClockDurations: with a Fake clock, span durations are exact,
// not approximate.
func TestSpanFakeClockDurations(t *testing.T) {
	clk := fakeAt(1000)
	tr := NewTracer(clk)
	ctx := WithTracer(context.Background(), tr)

	ctx, root := Start(ctx, "exchange")
	clk.Advance(5 * time.Millisecond)
	_, child := Start(ctx, "exchange.put")
	child.SetAttr("attempts", 2)
	clk.Advance(7 * time.Millisecond)
	child.End()
	clk.Advance(3 * time.Millisecond)
	root.SetAttr("ok", true)
	root.End()

	recs := tr.Records()
	if len(recs) != 2 {
		t.Fatalf("%d records, want 2", len(recs))
	}
	// End order: child first.
	c, r := recs[0], recs[1]
	if c.Name != "exchange.put" || r.Name != "exchange" {
		t.Fatalf("names = %q, %q", c.Name, r.Name)
	}
	if c.Parent != r.ID {
		t.Fatalf("child parent = %d, root id = %d", c.Parent, r.ID)
	}
	if r.Parent != 0 {
		t.Fatalf("root parent = %d, want 0", r.Parent)
	}
	if want := (7 * time.Millisecond).Nanoseconds(); c.DurationNS != want {
		t.Fatalf("child duration = %d, want %d", c.DurationNS, want)
	}
	if want := (15 * time.Millisecond).Nanoseconds(); r.DurationNS != want {
		t.Fatalf("root duration = %d, want %d", r.DurationNS, want)
	}
	if len(c.Attrs) != 1 || c.Attrs[0].Key != "attempts" {
		t.Fatalf("child attrs = %+v", c.Attrs)
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	clk := fakeAt(0)
	tr := NewTracer(clk)
	_, s := Start(WithTracer(context.Background(), tr), "op")
	clk.Advance(time.Millisecond)
	s.End()
	clk.Advance(time.Hour)
	s.End()
	recs := tr.Records()
	if len(recs) != 1 {
		t.Fatalf("%d records after double End, want 1", len(recs))
	}
	if recs[0].DurationNS != time.Millisecond.Nanoseconds() {
		t.Fatalf("duration = %d, want first-End duration", recs[0].DurationNS)
	}
}

// TestStartWithoutTracer: no tracer in context means nil span, and every
// method on a nil span is a no-op.
func TestStartWithoutTracer(t *testing.T) {
	ctx, s := Start(context.Background(), "op")
	if s != nil {
		t.Fatal("Start without tracer returned a live span")
	}
	s.SetAttr("k", "v")
	s.End()
	if ctx == nil {
		t.Fatal("Start returned nil context")
	}
}

func TestWriteJSON(t *testing.T) {
	clk := fakeAt(42)
	tr := NewTracer(clk)
	_, s := Start(WithTracer(context.Background(), tr), "grid")
	s.SetAttr("rows", 9)
	clk.Advance(2 * time.Second)
	s.End()

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []SpanRecord `json:"spans"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("WriteJSON output not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.Spans) != 1 || doc.Spans[0].Name != "grid" ||
		doc.Spans[0].DurationNS != (2*time.Second).Nanoseconds() {
		t.Fatalf("decoded spans = %+v", doc.Spans)
	}
}

func TestContextDefaults(t *testing.T) {
	ctx := context.Background()
	if Metrics(ctx) == nil {
		t.Fatal("Metrics returned nil for empty context")
	}
	if TracerFrom(ctx) != nil {
		t.Fatal("TracerFrom returned a tracer for empty context")
	}
}

func TestContextInjection(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(fakeAt(7))

	ctx := WithMetrics(context.Background(), reg)
	ctx = WithTracer(ctx, tr)

	if Metrics(ctx) != reg {
		t.Fatal("Metrics did not round-trip")
	}
	if TracerFrom(ctx) != tr {
		t.Fatal("TracerFrom did not round-trip")
	}
}

func TestFakeClock(t *testing.T) {
	f := fakeAt(100)
	t0 := f.Now()
	f.Advance(90 * time.Second)
	if got := f.Since(t0); got != 90*time.Second {
		t.Fatalf("Since = %v, want 90s", got)
	}
	f.Set(time.Unix(5000, 0).UTC())
	if got := f.Now().Unix(); got != 5000 {
		t.Fatalf("Set: Now = %d, want 5000", got)
	}
}
