package obs

import (
	"expvar"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind classifies a metric family.
type Kind int

const (
	// KindCounter is a monotonically increasing count.
	KindCounter Kind = iota
	// KindGauge is a value that can move in both directions.
	KindGauge
	// KindHistogram is a fixed-bucket distribution with sum and count.
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Registry holds metric families keyed by name, each fanning out into
// label-distinguished series. Lookups (Counter, Gauge, Histogram) are
// get-or-create and safe for concurrent use; updates on the returned
// handles are lock-free atomics, so hot paths resolve their series once
// and pay a few atomic operations per event afterwards.
//
// Snapshots — Prometheus text via WritePrometheus, expvar via
// PublishExpvar — order families by name and series by label signature, so
// identical recorded values always render identical bytes.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{families: map[string]*family{}} }

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry the CLIs export. Library code
// takes an explicit *Registry and treats nil as Default() (see OrDefault),
// so tests can isolate their counts while production wiring stays zero-config.
func Default() *Registry { return defaultRegistry }

// OrDefault resolves the nil-means-default convention.
func OrDefault(r *Registry) *Registry {
	if r == nil {
		return Default()
	}
	return r
}

// family is one named metric with a fixed kind shared by all its series.
type family struct {
	name    string
	help    string
	kind    Kind
	buckets []float64 // histogram upper bounds, sorted, +Inf implicit

	mu     sync.Mutex
	series map[string]any // canonical label signature -> handle
}

// Counter returns the counter series for name with the given label pairs
// ("key", "value", ...), creating family and series on first use. help is
// recorded on first creation. Panics on a kind conflict or odd label list —
// both programming errors.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	f := r.family(name, help, KindCounter, nil)
	return f.lookup(labels, func() any { return &Counter{} }).(*Counter)
}

// Gauge returns the gauge series for name with the given label pairs.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	f := r.family(name, help, KindGauge, nil)
	return f.lookup(labels, func() any { return &Gauge{} }).(*Gauge)
}

// Histogram returns the histogram series for name with the given label
// pairs. buckets are upper bounds (le semantics: a bucket counts v <=
// bound); they are sorted defensively and a +Inf bucket is implicit. The
// family's bucket layout is fixed by the first call; later calls reuse it.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	f := r.family(name, help, KindHistogram, buckets)
	return f.lookup(labels, func() any { return newHistogram(f.buckets) }).(*Histogram)
}

// family returns the family named name, creating it on first use with a
// sorted copy of buckets.
func (r *Registry) family(name, help string, kind Kind, buckets []float64) *family {
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil {
		r.mu.Lock()
		f = r.families[name]
		if f == nil {
			sorted := append([]float64(nil), buckets...)
			sort.Float64s(sorted)
			f = &family{name: name, help: help, kind: kind, buckets: sorted, series: map[string]any{}}
			r.families[name] = f
		}
		r.mu.Unlock()
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q redeclared as %s, registered as %s", name, kind, f.kind))
	}
	return f
}

// lookup returns the series of labels, creating it with make on first
// use. It builds the signature in a stack buffer and allocates its string
// only for a new series, so a lookup of an existing one allocates nothing.
func (f *family) lookup(labels []string, make func() any) any {
	var buf [256]byte
	sig := appendLabelSignature(buf[:0], labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	h, ok := f.series[string(sig)]
	if !ok {
		h = make()
		f.series[string(sig)] = h
	}
	return h
}

// appendLabelSignature appends the canonical form of alternating
// key/value pairs to dst: the exact text Prometheus exposition uses,
// sorted by key (an insertion sort, stable, over the few pairs a series
// has) so {a,b} and {b,a} name the same series.
func appendLabelSignature(dst []byte, labels []string) []byte {
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list %q: want key, value pairs", append([]string(nil), labels...)))
	}
	var keys [8]int
	order := keys[:0] // indexes of the keys in labels, in key order
	for i := 0; i < len(labels); i += 2 {
		order = append(order, i)
		j := len(order) - 1
		for ; j > 0 && labels[order[j-1]] > labels[i]; j-- {
			order[j] = order[j-1]
		}
		order[j] = i
	}
	for n, i := range order {
		if n > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, labels[i]...)
		dst = append(dst, `="`...)
		dst = appendLabelValue(dst, labels[i+1])
		dst = append(dst, '"')
	}
	return dst
}

// escapeLabelValue escapes a label value per the Prometheus 0.0.4 text
// exposition format: backslash, double-quote and newline get backslash
// escapes; everything else — including non-ASCII UTF-8 — passes through
// raw. (Go's %q was close but wrong: it hex/unicode-escapes control and
// non-ASCII bytes, which Prometheus parsers take literally.)
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	return string(appendLabelValue(make([]byte, 0, len(v)+8), v))
}

// appendLabelValue appends v to dst as escapeLabelValue escapes it.
func appendLabelValue(dst []byte, v string) []byte {
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			dst = append(dst, `\\`...)
		case '"':
			dst = append(dst, `\"`...)
		case '\n':
			dst = append(dst, `\n`...)
		default:
			dst = append(dst, v[i])
		}
	}
	return dst
}

// escapeHelp escapes HELP text per the 0.0.4 format: only backslash and
// newline are escaped (quotes are legal in HELP).
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	var sb strings.Builder
	sb.Grow(len(v) + 8)
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			sb.WriteString(`\\`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteByte(v[i])
		}
	}
	return sb.String()
}

// --- handles -----------------------------------------------------------

// Counter is a monotonically increasing series. All methods are nil-safe
// no-ops, so optional instrumentation never branches.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 series that can move both ways. Nil-safe like Counter.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// SetMax raises the gauge to v if v exceeds the current value — the
// running-maximum idiom peak-memory series use.
func (g *Gauge) SetMax(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if v <= math.Float64frombits(old) {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution. Observe is lock-free; bucket
// bounds use Prometheus le semantics (a value lands in the first bucket
// whose upper bound is >= it). Nil-safe like Counter.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// DefMSBuckets returns the standard millisecond bucketing shared by the
// duration histograms: 1-2.5-5 decades from 0.1 ms to 10 s.
func DefMSBuckets() []float64 {
	return []float64{0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}
}

// --- snapshots ---------------------------------------------------------

// BucketCount is one cumulative histogram bucket: observations <= LE.
type BucketCount struct {
	LE    float64
	Count uint64
}

// SeriesSnapshot is one series' frozen state.
type SeriesSnapshot struct {
	// Labels is the canonical `k="v",...` signature ("" when unlabeled).
	Labels string
	// Value carries counter and gauge readings.
	Value float64
	// Count, Sum and Buckets carry histogram readings.
	Count   uint64
	Sum     float64
	Buckets []BucketCount
}

// FamilySnapshot is one family's frozen state, series sorted by signature.
type FamilySnapshot struct {
	Name   string
	Help   string
	Kind   Kind
	Series []SeriesSnapshot
}

// Snapshot freezes every family, sorted by name with series sorted by
// label signature — the deterministic order every exporter renders.
func (r *Registry) Snapshot() []FamilySnapshot {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	out := make([]FamilySnapshot, 0, len(fams))
	for _, f := range fams {
		fs := FamilySnapshot{Name: f.name, Help: f.help, Kind: f.kind}
		f.mu.Lock()
		sigs := make([]string, 0, len(f.series))
		for sig := range f.series {
			sigs = append(sigs, sig)
		}
		sort.Strings(sigs)
		for _, sig := range sigs {
			fs.Series = append(fs.Series, snapshotSeries(sig, f.series[sig]))
		}
		f.mu.Unlock()
		out = append(out, fs)
	}
	return out
}

func snapshotSeries(sig string, h any) SeriesSnapshot {
	s := SeriesSnapshot{Labels: sig}
	switch m := h.(type) {
	case *Counter:
		s.Value = float64(m.Value())
	case *Gauge:
		s.Value = m.Value()
	case *Histogram:
		s.Count = m.Count()
		s.Sum = m.Sum()
		cum := uint64(0)
		for i := range m.bounds {
			cum += m.counts[i].Load()
			s.Buckets = append(s.Buckets, BucketCount{LE: m.bounds[i], Count: cum})
		}
		cum += m.counts[len(m.bounds)].Load()
		s.Buckets = append(s.Buckets, BucketCount{LE: math.Inf(1), Count: cum})
	}
	return s
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4). Output is byte-deterministic for identical
// recorded values.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, fs := range r.Snapshot() {
		if fs.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", fs.Name, escapeHelp(fs.Help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fs.Name, fs.Kind); err != nil {
			return err
		}
		for _, s := range fs.Series {
			if err := writeSeries(w, fs, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, fs FamilySnapshot, s SeriesSnapshot) error {
	switch fs.Kind {
	case KindCounter:
		_, err := fmt.Fprintf(w, "%s %s\n", seriesName(fs.Name, s.Labels), formatValue(s.Value))
		return err
	case KindGauge:
		_, err := fmt.Fprintf(w, "%s %s\n", seriesName(fs.Name, s.Labels), formatValue(s.Value))
		return err
	case KindHistogram:
		for _, b := range s.Buckets {
			le := "+Inf"
			if !math.IsInf(b.LE, 1) {
				le = formatValue(b.LE)
			}
			labels := s.Labels
			if labels != "" {
				labels += ","
			}
			labels += `le="` + escapeLabelValue(le) + `"`
			if _, err := fmt.Fprintf(w, "%s_bucket{%s} %d\n", fs.Name, labels, b.Count); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", seriesName(fs.Name+"_sum", s.Labels), formatValue(s.Sum)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s %d\n", seriesName(fs.Name+"_count", s.Labels), s.Count)
		return err
	}
	return nil
}

func seriesName(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// expvarTargets maps each published expvar name to the registry currently
// backing it. expvar.Publish is write-once per process, so the published
// Func reads through this indirection: republishing a name with a
// different registry repoints the variable instead of silently serving the
// first registry's numbers forever.
var (
	expvarMu      sync.Mutex
	expvarTargets = map[string]*atomic.Pointer[Registry]{}
)

// PublishExpvar exposes the registry as one expvar variable under name
// (rendered as a JSON object of series name to value), so /debug/vars
// serves the same numbers /metrics does. expvar itself panics on duplicate
// Publish calls, so the name is published once per process with an
// indirection that always resolves the registry most recently mounted
// under it — a second DebugHandler with a different registry takes over
// /debug/vars instead of being silently shadowed by the first.
func (r *Registry) PublishExpvar(name string) {
	expvarMu.Lock()
	defer expvarMu.Unlock()
	p := expvarTargets[name]
	if p == nil {
		if expvar.Get(name) != nil {
			// The name is taken by a variable this package never published;
			// repointing it is impossible and claiming it would panic.
			return
		}
		p = &atomic.Pointer[Registry]{}
		p.Store(r) // before Publish: the Func must never observe a nil target
		expvarTargets[name] = p
		expvar.Publish(name, expvar.Func(func() any { return p.Load().expvarMap() }))
		return
	}
	p.Store(r)
}

func (r *Registry) expvarMap() map[string]any {
	out := map[string]any{}
	for _, fs := range r.Snapshot() {
		for _, s := range fs.Series {
			key := seriesName(fs.Name, s.Labels)
			if fs.Kind == KindHistogram {
				out[key] = map[string]any{"count": s.Count, "sum": s.Sum}
				continue
			}
			out[key] = s.Value
		}
	}
	return out
}
