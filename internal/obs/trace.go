package obs

import (
	"context"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
)

// This file is the distributed half of the tracing layer: W3C traceparent
// propagation, deterministic trace/span ID generation, and span-tree
// export. The serving stack parses an inbound traceparent into a
// RemoteParent, installs it with WithRemoteParent, and every span the
// request opens — serve handler, codec work, fleet replica ops — shares
// the caller's trace ID. IDs come from an injectable IDSource, so tests
// with a seeded source get byte-identical trace exports.

// IDSource generates trace and span identifiers. Implementations must be
// safe for concurrent use.
type IDSource interface {
	// TraceID returns a 32-hex-digit (16-byte) W3C trace ID, never all
	// zeros.
	TraceID() string
	// SpanID returns a 16-hex-digit (8-byte) W3C span ID, never all zeros.
	SpanID() string
}

// seededIDs is a deterministic IDSource: a splitmix64 stream keyed by the
// seed. With the same seed and the same draw order, the emitted IDs are
// identical — the property the serve tests pin.
type seededIDs struct {
	mu    sync.Mutex
	state uint64
}

// NewSeededIDSource returns a deterministic IDSource seeded with seed.
// Concurrent callers serialize on an internal mutex; determinism holds for
// any serial draw order (one request at a time, or a single goroutine).
func NewSeededIDSource(seed uint64) IDSource { return &seededIDs{state: seed} }

// next advances the splitmix64 stream, skipping zero outputs so IDs are
// never the all-zero values the W3C spec declares invalid.
func (s *seededIDs) next() uint64 {
	for {
		s.state += 0x9e3779b97f4a7c15
		z := s.state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		if z != 0 {
			return z
		}
	}
}

func (s *seededIDs) TraceID() string {
	s.mu.Lock()
	hi, lo := s.next(), s.next()
	s.mu.Unlock()
	var b [16]byte
	putUint64(b[:8], hi)
	putUint64(b[8:], lo)
	return hex.EncodeToString(b[:])
}

func (s *seededIDs) SpanID() string {
	s.mu.Lock()
	v := s.next()
	s.mu.Unlock()
	var b [8]byte
	putUint64(b[:], v)
	return hex.EncodeToString(b[:])
}

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (56 - 8*i))
	}
}

// RemoteParent is the cross-process parent of a request's root span, as
// carried by a W3C traceparent header: the caller's trace ID and the span
// that issued the request. The zero value means "no remote parent".
type RemoteParent struct {
	TraceID string
	SpanID  string
}

// FormatTraceparent renders a version-00 W3C traceparent header with the
// sampled flag set.
func FormatTraceparent(traceID, spanID string) string {
	return fmt.Sprintf("00-%s-%s-01", traceID, spanID)
}

// ParseTraceparent parses a W3C traceparent header
// (version-traceid-spanid-flags). It accepts any non-ff version with the
// standard field widths and rejects all-zero IDs, returning ok=false for
// anything malformed — a bad header means "untraced", never an error.
func ParseTraceparent(h string) (RemoteParent, bool) {
	if len(h) < 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return RemoteParent{}, false
	}
	version, traceID, spanID := h[0:2], h[3:35], h[36:52]
	if !isHex(version) || version == "ff" {
		return RemoteParent{}, false
	}
	if version == "00" && len(h) != 55 {
		return RemoteParent{}, false
	}
	if len(h) > 55 && h[55] != '-' {
		return RemoteParent{}, false
	}
	if !isHex(traceID) || !isHex(spanID) || !isHex(h[53:55]) {
		return RemoteParent{}, false
	}
	if allZero(traceID) || allZero(spanID) {
		return RemoteParent{}, false
	}
	return RemoteParent{TraceID: traceID, SpanID: spanID}, true
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			return false
		}
	}
	return true
}

func allZero(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}

// WithRemoteParent returns a context carrying rp as the cross-process
// parent: the next Start call that opens a *root* span (no in-process
// parent span in the context) joins rp's trace instead of minting a new
// one. Child spans always inherit from their in-process parent.
func WithRemoteParent(ctx context.Context, rp RemoteParent) context.Context {
	return context.WithValue(ctx, remoteParentKey, rp)
}

// RemoteParentFrom returns the context's remote parent, zero when none was
// installed.
func RemoteParentFrom(ctx context.Context) RemoteParent {
	rp, _ := ctx.Value(remoteParentKey).(RemoteParent)
	return rp
}

// SpanTree is one span with its children nested inside — the export shape
// of a request trace (?trace=1, the -trace sink).
type SpanTree struct {
	Name          string      `json:"name"`
	TraceID       string      `json:"trace_id,omitempty"`
	SpanID        string      `json:"span_id,omitempty"`
	ParentSpanID  string      `json:"parent_span_id,omitempty"`
	StartUnixNano int64       `json:"start_unix_nano"`
	DurationNS    int64       `json:"duration_ns"`
	Attrs         []Attr      `json:"attrs,omitempty"`
	Children      []*SpanTree `json:"children,omitempty"`
}

// Walk visits the tree depth-first, t before its children.
func (t *SpanTree) Walk(fn func(*SpanTree)) {
	if t == nil {
		return
	}
	fn(t)
	for _, c := range t.Children {
		c.Walk(fn)
	}
}

// Find returns the first node named name in depth-first order, or nil.
func (t *SpanTree) Find(name string) *SpanTree {
	var hit *SpanTree
	t.Walk(func(n *SpanTree) {
		if hit == nil && n.Name == name {
			hit = n
		}
	})
	return hit
}

// BuildSpanTree nests finished span records by their in-process parent
// links and returns the roots. Children are ordered by start order (span
// creation), roots likewise, so the same records always build the same
// tree bytes.
func BuildSpanTree(records []SpanRecord) []*SpanTree {
	nodes := make(map[int]*SpanTree, len(records))
	order := make(map[*SpanTree]int, len(records))
	for _, r := range records {
		n := &SpanTree{
			Name:          r.Name,
			TraceID:       r.TraceID,
			SpanID:        r.SpanID,
			ParentSpanID:  r.ParentSpanID,
			StartUnixNano: r.StartUnixNano,
			DurationNS:    r.DurationNS,
			Attrs:         r.Attrs,
		}
		nodes[r.ID] = n
		order[n] = r.ID
	}
	var roots []*SpanTree
	for _, r := range records {
		n := nodes[r.ID]
		if p, ok := nodes[r.Parent]; ok && r.Parent != r.ID {
			p.Children = append(p.Children, n)
			continue
		}
		roots = append(roots, n)
	}
	sortTrees := func(ts []*SpanTree) {
		sort.Slice(ts, func(i, j int) bool { return order[ts[i]] < order[ts[j]] })
	}
	sortTrees(roots)
	for _, n := range nodes {
		sortTrees(n.Children)
	}
	return roots
}

// Tree returns the tracer's finished spans nested as trees (see
// BuildSpanTree).
func (t *Tracer) Tree() []*SpanTree { return BuildSpanTree(t.Records()) }
