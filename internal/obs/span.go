package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Attr is one span attribute. Attributes keep insertion order so exported
// traces are stable for a deterministic caller.
type Attr struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}

// SpanRecord is one finished span as exported by Tracer.Records and
// WriteJSON. Durations come from the tracer's Clock, so a Fake clock makes
// them exact test fixtures.
type SpanRecord struct {
	ID            int    `json:"id"`
	Parent        int    `json:"parent,omitempty"`
	Name          string `json:"name"`
	StartUnixNano int64  `json:"start_unix_nano"`
	DurationNS    int64  `json:"duration_ns"`
	Attrs         []Attr `json:"attrs,omitempty"`

	// Distributed identity (W3C trace-context), present only on tracers
	// built with an IDSource or when the root joined a RemoteParent.
	// omitempty keeps plain-tracer JSON exports byte-identical to before.
	TraceID      string `json:"trace_id,omitempty"`
	SpanID       string `json:"span_id,omitempty"`
	ParentSpanID string `json:"parent_span_id,omitempty"`
}

// Tracer collects finished spans. Create one per run (NewTracer), install
// it with WithTracer, open spans with Start, and export with Records or
// WriteJSON. Safe for concurrent use.
type Tracer struct {
	clock Clock
	ids   IDSource // nil: spans carry local int IDs only

	mu       sync.Mutex
	nextID   int
	finished []SpanRecord
}

// NewTracer returns a tracer timing spans on clock (nil means the system
// clock). Given an IDSource (only the first is used), its spans also carry
// W3C trace/span IDs drawn from it: a root span mints a fresh trace ID (or
// joins the context's RemoteParent); children inherit the trace ID and
// link to their parent's span ID. A seeded IDSource makes the whole export
// deterministic.
func NewTracer(clock Clock, ids ...IDSource) *Tracer {
	if clock == nil {
		clock = System()
	}
	t := &Tracer{clock: clock}
	if len(ids) > 0 {
		t.ids = ids[0]
	}
	return t
}

func (t *Tracer) start(name string, parent *Span, remote RemoteParent) *Span {
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	s := &Span{tracer: t, id: id, name: name, start: t.clock.Now()}
	if parent != nil {
		s.parent = parent.id
		s.traceID = parent.traceID
		s.parentSpanID = parent.spanID
	} else if remote.TraceID != "" {
		s.traceID = remote.TraceID
		s.parentSpanID = remote.SpanID
	} else if t.ids != nil {
		s.traceID = t.ids.TraceID()
	}
	if s.traceID != "" && t.ids != nil {
		s.spanID = t.ids.SpanID()
	}
	return s
}

// Records returns a copy of the finished spans in End order.
func (t *Tracer) Records() []SpanRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]SpanRecord(nil), t.finished...)
}

// WriteJSON renders the finished spans as an indented JSON document:
// {"spans": [...]}.
func (t *Tracer) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string][]SpanRecord{"spans": t.Records()})
}

// Span is one in-flight operation. A nil *Span (tracing off) is a valid
// no-op receiver for every method.
type Span struct {
	tracer *Tracer
	id     int
	parent int
	name   string
	start  time.Time

	traceID      string
	spanID       string
	parentSpanID string

	mu    sync.Mutex
	attrs []Attr
	ended bool
}

// TraceID returns the span's W3C trace ID ("" on a plain tracer or nil
// span).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.traceID
}

// SpanID returns the span's W3C span ID ("" on a plain tracer or nil span).
func (s *Span) SpanID() string {
	if s == nil {
		return ""
	}
	return s.spanID
}

// Traceparent renders the span as an outbound W3C traceparent header, ""
// when the span has no distributed identity.
func (s *Span) Traceparent() string {
	if s == nil || s.traceID == "" || s.spanID == "" {
		return ""
	}
	return FormatTraceparent(s.traceID, s.spanID)
}

// SetAttr attaches a key/value attribute to the span.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// End closes the span, measuring its duration on the tracer's clock and
// handing the record to the tracer. Second and later End calls are no-ops.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	rec := SpanRecord{
		ID:            s.id,
		Parent:        s.parent,
		Name:          s.name,
		StartUnixNano: s.start.UnixNano(),
		DurationNS:    s.tracer.clock.Since(s.start).Nanoseconds(),
		Attrs:         append([]Attr(nil), s.attrs...),
		TraceID:       s.traceID,
		SpanID:        s.spanID,
		ParentSpanID:  s.parentSpanID,
	}
	s.mu.Unlock()

	s.tracer.mu.Lock()
	s.tracer.finished = append(s.tracer.finished, rec)
	s.tracer.mu.Unlock()
}
