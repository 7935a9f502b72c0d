// Package metrics is a dependency-free Prometheus-text-format metrics
// registry: counters, gauges and histograms, with optional labels,
// rendered in the text exposition format any Prometheus-compatible
// scraper understands. It exists so mtvserve nodes expose /metrics
// without pulling a client library into the module.
//
// The output is deterministic: families sort by name and series by
// label values, so two scrapes of identical state are byte-identical —
// the same property the rest of the repo holds simulation output to.
//
// All collectors are safe for concurrent use. Registration is
// idempotent: asking a registry for a collector that already exists
// returns the existing one (names are the identity), and asking for an
// existing name with a different collector type or label set panics —
// that is a programming error, not a runtime condition.
package metrics

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// A kind is a family's collector type.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Registry holds metric families and renders them.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string // insertion order; rendering sorts a copy
}

// family is one named metric with its help text and series.
type family struct {
	name    string
	help    string
	kind    kind
	labels  []string
	buckets []float64 // histograms only

	mu     sync.Mutex
	series map[string]series // key = rendered label pairs
	funcs  map[string]func() float64
}

// series is one labelled time series of a family.
type series interface {
	value() float64
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// validName matches the Prometheus metric-name charset.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// validLabel matches the Prometheus label-name charset (no colons).
func validLabel(s string) bool {
	if s == "" || strings.HasPrefix(s, "__") {
		return false
	}
	for i, r := range s {
		ok := r == '_' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// register finds or creates the family, enforcing identity invariants.
func (r *Registry) register(name, help string, k kind, labels []string, buckets []float64) *family {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validLabel(l) {
			panic(fmt.Sprintf("metrics: invalid label name %q on %q", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != k || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("metrics: %q re-registered as %s(%v), was %s(%v)",
				name, k, labels, f.kind, f.labels))
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic(fmt.Sprintf("metrics: %q re-registered with labels %v, was %v", name, labels, f.labels))
			}
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: k,
		labels:  append([]string(nil), labels...),
		buckets: buckets,
		series:  make(map[string]series),
	}
	r.families[name] = f
	r.order = append(r.order, name)
	return f
}

// seriesKey renders the label pairs of one series ("" for none).
func (f *family) seriesKey(values []string) string {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	if len(values) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range f.labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// get finds or creates the series for the label values.
func (f *family) get(values []string, mk func() series) series {
	key := f.seriesKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := mk()
	f.series[key] = s
	return s
}

// Counter is a monotonically increasing event count.
type Counter struct{ v atomic.Int64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative n panics (counters only go up).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("metrics: counter Add with negative delta")
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) value() float64 { return float64(c.v.Load()) }

// Gauge is a value that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (CAS loop; safe concurrently).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		v := math.Float64frombits(old) + delta
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) value() float64 { return g.Value() }

// Histogram accumulates observations into cumulative buckets.
type Histogram struct {
	uppers  []float64 // sorted ascending; +Inf implicit
	counts  []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	// First bucket whose upper bound admits v (buckets are cumulative at
	// render time, so only one physical bucket increments).
	i := sort.SearchFloat64s(h.uppers, v)
	if i < len(h.counts) {
		h.counts[i].Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		s := math.Float64frombits(old) + v
		if h.sumBits.CompareAndSwap(old, math.Float64bits(s)) {
			return
		}
	}
}

// Count returns how many observations were recorded.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

func (h *Histogram) value() float64 { return float64(h.count.Load()) }

// DefBuckets is a latency-oriented default bucket layout, in seconds.
var DefBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Counter returns the (label-less) counter with this name, creating it
// if needed.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, kindCounter, nil, nil)
	return f.get(nil, func() series { return &Counter{} }).(*Counter)
}

// GaugeFunc registers a gauge whose value is read from fn at render
// time — for instantaneous quantities the program already tracks (gate
// occupancy, goroutine counts).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, kindGauge, nil, nil).setFunc(fn)
}

// CounterFunc registers a counter whose value is read from fn at render
// time — for monotonic counts the program already tracks (session
// simulation and store-hit counters).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(name, help, kindCounter, nil, nil).setFunc(fn)
}

func (f *family) setFunc(fn func() float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.funcs == nil {
		f.funcs = make(map[string]func() float64)
	}
	f.funcs[""] = fn
}

// Histogram returns the (label-less) histogram with this name. buckets
// are upper bounds, ascending; nil selects DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.register(name, help, kindHistogram, nil, normBuckets(buckets))
	return f.get(nil, func() series { return newHistogram(f.buckets) }).(*Histogram)
}

func normBuckets(buckets []float64) []float64 {
	if buckets == nil {
		buckets = DefBuckets
	}
	out := append([]float64(nil), buckets...)
	if !sort.Float64sAreSorted(out) {
		panic("metrics: histogram buckets not ascending")
	}
	return out
}

func newHistogram(uppers []float64) *Histogram {
	return &Histogram{uppers: uppers, counts: make([]atomic.Int64, len(uppers))}
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// CounterVec returns the labelled counter family with this name.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, kindCounter, labels, nil)}
}

// With returns the counter for the given label values (created on first
// use). The number of values must match the declared labels.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.get(values, func() series { return &Counter{} }).(*Counter)
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// GaugeVec returns the labelled gauge family with this name.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.register(name, help, kindGauge, labels, nil)}
}

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.get(values, func() series { return &Gauge{} }).(*Gauge)
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// HistogramVec returns the labelled histogram family with this name.
// buckets are upper bounds, ascending; nil selects DefBuckets.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.register(name, help, kindHistogram, labels, normBuckets(buckets))}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.get(values, func() series { return newHistogram(v.f.buckets) }).(*Histogram)
}

// Render writes the whole registry in the text exposition format.
// Families sort by name and series by label key, so identical state
// renders byte-identically.
func (r *Registry) Render() string {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		f.render(&b)
	}
	return b.String()
}

func (f *family) render(b *strings.Builder) {
	f.mu.Lock()
	keys := make([]string, 0, len(f.series)+len(f.funcs))
	vals := make(map[string]series, len(f.series))
	for k, s := range f.series {
		keys = append(keys, k)
		vals[k] = s
	}
	fns := make(map[string]func() float64, len(f.funcs))
	for k, fn := range f.funcs {
		keys = append(keys, k)
		fns[k] = fn
	}
	f.mu.Unlock()
	if len(keys) == 0 {
		return
	}
	sort.Strings(keys)

	if f.help != "" {
		fmt.Fprintf(b, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
	}
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)
	for _, k := range keys {
		if fn, ok := fns[k]; ok {
			fmt.Fprintf(b, "%s%s %s\n", f.name, k, fmtFloat(fn()))
			continue
		}
		s := vals[k]
		if h, ok := s.(*Histogram); ok {
			renderHistogram(b, f.name, k, h)
			continue
		}
		fmt.Fprintf(b, "%s%s %s\n", f.name, k, fmtFloat(s.value()))
	}
}

// renderHistogram emits the cumulative _bucket/_sum/_count triplet.
func renderHistogram(b *strings.Builder, name, key string, h *Histogram) {
	// Re-open the label set to append le: "{a="x"}" -> `{a="x",le="..."}`.
	pre := "{"
	if key != "" {
		pre = key[:len(key)-1] + ","
	}
	var cum int64
	for i, upper := range h.uppers {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket%sle=%q} %d\n", name, pre, fmtFloat(upper), cum)
	}
	fmt.Fprintf(b, "%s_bucket%sle=\"+Inf\"} %d\n", name, pre, h.Count())
	fmt.Fprintf(b, "%s_sum%s %s\n", name, key, fmtFloat(h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", name, key, h.Count())
}

// fmtFloat renders a sample value: integers without a decimal point,
// everything else in shortest-round-trip form.
func fmtFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler serves the registry at GET /metrics in the text exposition
// format (version 0.0.4).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if req.Method == http.MethodHead {
			return
		}
		fmt.Fprint(w, r.Render())
	})
}
