package obs

import (
	"context"
	"strings"
	"testing"
	"time"
)

func TestSeededIDSourceDeterministic(t *testing.T) {
	a := NewSeededIDSource(42)
	b := NewSeededIDSource(42)
	for i := 0; i < 16; i++ {
		at, bt := a.TraceID(), b.TraceID()
		if at != bt {
			t.Fatalf("draw %d: trace IDs diverge: %s vs %s", i, at, bt)
		}
		if len(at) != 32 || !isHex(at) || allZero(at) {
			t.Fatalf("bad trace ID %q", at)
		}
		as, bs := a.SpanID(), b.SpanID()
		if as != bs {
			t.Fatalf("draw %d: span IDs diverge: %s vs %s", i, as, bs)
		}
		if len(as) != 16 || !isHex(as) || allZero(as) {
			t.Fatalf("bad span ID %q", as)
		}
	}
	if NewSeededIDSource(1).TraceID() == NewSeededIDSource(2).TraceID() {
		t.Fatalf("different seeds produced the same trace ID")
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	ids := NewSeededIDSource(7)
	tid, sid := ids.TraceID(), ids.SpanID()
	h := FormatTraceparent(tid, sid)
	rp, ok := ParseTraceparent(h)
	if !ok {
		t.Fatalf("ParseTraceparent rejected own output %q", h)
	}
	if rp.TraceID != tid || rp.SpanID != sid {
		t.Fatalf("round trip: got %+v want %s/%s", rp, tid, sid)
	}
}

const validTraceparent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"

// badTraceparents are headers ParseTraceparent must refuse; they also seed
// FuzzParseTraceparent.
var badTraceparents = []string{
	"",
	"00",
	validTraceparent[:54],  // truncated
	validTraceparent + "x", // version 00 must be exactly 55 chars
	"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // version ff forbidden
	"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace ID
	"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", // zero span ID
	"00-4bf92f3577b34da6a3ce929d0e0e47ZZ-00f067aa0ba902b7-01", // non-hex
	"00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // bad separator
	"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01", // uppercase hex forbidden
}

func TestParseTraceparentRejects(t *testing.T) {
	if _, ok := ParseTraceparent(validTraceparent); !ok {
		t.Fatalf("valid header rejected")
	}
	// version 01 with trailing extra field is legal per spec
	if _, ok := ParseTraceparent("01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra"); !ok {
		t.Fatalf("future-version header with extra field rejected")
	}
	for _, h := range badTraceparents {
		if _, ok := ParseTraceparent(h); ok {
			t.Fatalf("ParseTraceparent accepted %q", h)
		}
	}
}

// FuzzParseTraceparent holds the parser of every request's traceparent
// header to its contract: it never panics; an accepted header yields a
// 32-character trace ID and a 16-character span ID, both lowercase hex and
// neither all zeros; and the IDs format back into a header that parses to
// them again.
func FuzzParseTraceparent(f *testing.F) {
	f.Add(validTraceparent)
	for _, h := range badTraceparents {
		f.Add(h)
	}
	lowerHexID := func(id string, n int) bool {
		return len(id) == n && strings.Trim(id, "0123456789abcdef") == "" && strings.Trim(id, "0") != ""
	}
	f.Fuzz(func(t *testing.T, h string) {
		rp, ok := ParseTraceparent(h)
		if !ok {
			return
		}
		if !lowerHexID(rp.TraceID, 32) || !lowerHexID(rp.SpanID, 16) {
			t.Fatalf("ParseTraceparent(%q) accepted trace ID %q, span ID %q", h, rp.TraceID, rp.SpanID)
		}
		if back, ok := ParseTraceparent(FormatTraceparent(rp.TraceID, rp.SpanID)); !ok || back != rp {
			t.Fatalf("formatted IDs of %q parse to %+v (ok=%v), want %+v", h, back, ok, rp)
		}
	})
}

func TestTracerWithIDsInheritance(t *testing.T) {
	clock := NewFake(time.Unix(0, 0))
	tr := NewTracer(clock, NewSeededIDSource(2015))
	ctx := WithTracer(context.Background(), tr)

	ctx, root := Start(ctx, "root")
	childCtx, child := Start(ctx, "child")
	_, grand := Start(childCtx, "grandchild")
	grand.End()
	child.End()
	root.End()

	if root.TraceID() == "" || root.SpanID() == "" {
		t.Fatalf("root missing IDs: %q/%q", root.TraceID(), root.SpanID())
	}
	if child.TraceID() != root.TraceID() || grand.TraceID() != root.TraceID() {
		t.Fatalf("children did not inherit the trace ID")
	}
	recs := tr.Records()
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	byName := map[string]SpanRecord{}
	for _, r := range recs {
		byName[r.Name] = r
	}
	if byName["child"].ParentSpanID != byName["root"].SpanID {
		t.Fatalf("child parent span ID %q != root span ID %q", byName["child"].ParentSpanID, byName["root"].SpanID)
	}
	if byName["grandchild"].ParentSpanID != byName["child"].SpanID {
		t.Fatalf("grandchild parent span ID mismatch")
	}
	if byName["root"].ParentSpanID != "" {
		t.Fatalf("root should have no parent span ID, got %q", byName["root"].ParentSpanID)
	}
}

// TestNewTracerUsesFirstIDSource: extra IDSources are ignored, so the IDs
// match a tracer given only the first.
func TestNewTracerUsesFirstIDSource(t *testing.T) {
	ids := func(tr *Tracer) (string, string) {
		ctx, root := Start(WithTracer(context.Background(), tr), "root")
		_, child := Start(ctx, "child")
		child.End()
		root.End()
		return root.TraceID(), child.SpanID()
	}
	clock := NewFake(time.Unix(0, 0))
	wantTrace, wantSpan := ids(NewTracer(clock, NewSeededIDSource(3)))
	gotTrace, gotSpan := ids(NewTracer(clock, NewSeededIDSource(3), NewSeededIDSource(4)))
	if gotTrace != wantTrace || gotSpan != wantSpan {
		t.Fatalf("IDs %s/%s, want %s/%s from the first source", gotTrace, gotSpan, wantTrace, wantSpan)
	}
}

func TestRemoteParentJoinsTrace(t *testing.T) {
	clock := NewFake(time.Unix(0, 0))
	tr := NewTracer(clock, NewSeededIDSource(1))
	rp := RemoteParent{TraceID: strings.Repeat("ab", 16), SpanID: strings.Repeat("cd", 8)}
	ctx := WithRemoteParent(WithTracer(context.Background(), tr), rp)

	ctx, root := Start(ctx, "serve.compress")
	_, child := Start(ctx, "codec.work")
	child.End()
	root.End()

	if root.TraceID() != rp.TraceID {
		t.Fatalf("root trace ID %q did not join remote parent %q", root.TraceID(), rp.TraceID)
	}
	if child.TraceID() != rp.TraceID {
		t.Fatalf("child trace ID %q escaped the remote trace", child.TraceID())
	}
	recs := tr.Records()
	for _, r := range recs {
		if r.Name == "serve.compress" && r.ParentSpanID != rp.SpanID {
			t.Fatalf("root parent span ID %q != remote span ID %q", r.ParentSpanID, rp.SpanID)
		}
	}
	if got := root.Traceparent(); !strings.HasPrefix(got, "00-"+rp.TraceID+"-") {
		t.Fatalf("outbound traceparent %q not in remote trace", got)
	}
}

func TestPlainTracerHasNoDistributedIDs(t *testing.T) {
	tr := NewTracer(NewFake(time.Unix(0, 0)))
	ctx := WithTracer(context.Background(), tr)
	_, s := Start(ctx, "op")
	s.End()
	rec := tr.Records()[0]
	if rec.TraceID != "" || rec.SpanID != "" || rec.ParentSpanID != "" {
		t.Fatalf("plain tracer leaked distributed IDs: %+v", rec)
	}
	if s.Traceparent() != "" {
		t.Fatalf("plain span rendered a traceparent")
	}
}

func TestBuildSpanTree(t *testing.T) {
	clock := NewFake(time.Unix(0, 0))
	tr := NewTracer(clock, NewSeededIDSource(3))
	ctx := WithTracer(context.Background(), tr)

	ctx, root := Start(ctx, "serve.compress")
	cctx, codec := Start(ctx, "codec.dnax")
	_, put := Start(cctx, "fleet.put")
	put.End()
	codec.End()
	_, store := Start(ctx, "serve.store")
	store.End()
	root.End()

	trees := tr.Tree()
	if len(trees) != 1 {
		t.Fatalf("got %d roots, want 1", len(trees))
	}
	r := trees[0]
	if r.Name != "serve.compress" || len(r.Children) != 2 {
		t.Fatalf("bad root %q with %d children", r.Name, len(r.Children))
	}
	if r.Children[0].Name != "codec.dnax" || r.Children[1].Name != "serve.store" {
		t.Fatalf("children out of start order: %s, %s", r.Children[0].Name, r.Children[1].Name)
	}
	if f := r.Find("fleet.put"); f == nil || f.TraceID != r.TraceID {
		t.Fatalf("fleet.put missing or off-trace in tree")
	}
	var names []string
	r.Walk(func(n *SpanTree) { names = append(names, n.Name) })
	want := "serve.compress codec.dnax fleet.put serve.store"
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("walk order %q, want %q", got, want)
	}
}

func TestSpanTreeDeterministicAcrossRuns(t *testing.T) {
	build := func() []SpanRecord {
		tr := NewTracer(NewFake(time.Unix(0, 0)), NewSeededIDSource(99))
		ctx := WithTracer(context.Background(), tr)
		ctx, root := Start(ctx, "root")
		_, a := Start(ctx, "a")
		a.End()
		_, b := Start(ctx, "b")
		b.End()
		root.End()
		return tr.Records()
	}
	r1, r2 := build(), build()
	if len(r1) != len(r2) {
		t.Fatalf("record counts differ")
	}
	for i := range r1 {
		if r1[i].TraceID != r2[i].TraceID || r1[i].SpanID != r2[i].SpanID {
			t.Fatalf("record %d IDs differ across identical runs: %+v vs %+v", i, r1[i], r2[i])
		}
	}
}
